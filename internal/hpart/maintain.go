package hpart

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ping/internal/columnar"
	"ping/internal/cs"
	"ping/internal/dfs"
	"ping/internal/rdf"
)

// Maintainer implements the incremental-update algorithm the paper leaves
// as future work (§6.1/§6.2): applying triple additions and removals to an
// existing hierarchical partitioning without rebuilding it.
//
// The subtlety the paper points out is that updates can reshape the CS
// hierarchy itself: adding triples can create a characteristic set that
// slots *below* existing ones, deepening their levels, and removals can
// flatten chains. The maintainer therefore keeps the live multiset of
// characteristic sets; after an update batch it recomputes the (small)
// hierarchy, diffs every CS's level, and moves exactly the affected
// subjects' rows between level files — instances whose CS and level are
// untouched cost nothing, matching the paper's "trivial for instances that
// have a CS already in the hierarchy" observation.
//
// All layout invariants (modularity, losslessness, index consistency) are
// preserved; the equivalence tests check the maintained layout against a
// from-scratch Partition of the updated graph.
//
// Every batch is copy-on-write: Apply clones the store's latest epoch,
// writes rewritten sub-partitions to fresh generation-suffixed files
// (numbered by the Store), and publishes the clone; concurrent queries
// keep reading their pinned epoch untouched. A maintainer is a
// single-writer object: calls into one maintainer must be serialized by
// the caller.
type Maintainer struct {
	lay   *Layout
	store *Store
	// csBySubject is the live CS of every subject.
	csBySubject map[rdf.ID]cs.Set
	// csCount is the number of subjects per CS key (the hierarchy is the
	// set of keys with count > 0).
	csCount map[string]int
	// csByKey resolves a CS key back to its set.
	csByKey map[string]cs.Set
	// oiCount tracks, per (object, level), how many triples reference the
	// object there — the exact refcounts behind the OI index.
	oiCount map[objLevel]int
	// physLevel is every CS's physical level as of the last batch. A
	// batch scans all subjects for level shifts only when one of these
	// changed; nil (the first batch, and after a Restructure) forces
	// the scan.
	physLevel map[string]int

	// retired / created accumulate, during one Apply, the files
	// superseded by the batch and the files the batch wrote.
	retired []retiredFile
	created map[string]cacheKey
}

type objLevel struct {
	obj   rdf.ID
	level int
}

// NewStoreMaintainer builds a maintainer over the store's current epoch
// by scanning its sub-partitions once (the layout is lossless, so the
// scan reconstructs every subject's CS and the object refcounts). Every
// applied batch is built copy-on-write and published as a new epoch,
// leaving all older epochs readable for the queries pinning them. One
// maintainer per store; calls must be serialized by the caller. After a
// failed Apply the maintainer's internal bookkeeping may be inconsistent
// and it must be rebuilt with NewStoreMaintainer — the store itself is
// unaffected (the failed epoch is never published).
func NewStoreMaintainer(store *Store) (*Maintainer, error) {
	lay := store.Current()
	m := &Maintainer{
		lay:         lay,
		store:       store,
		csBySubject: make(map[rdf.ID]cs.Set),
		csCount:     make(map[string]int),
		csByKey:     make(map[string]cs.Set),
		oiCount:     make(map[objLevel]int),
	}
	propsBySubject := make(map[rdf.ID][]rdf.ID)
	for _, key := range lay.SubPartitions() {
		pairs, err := lay.ReadSubPartition(key)
		if err != nil {
			return nil, err
		}
		for _, pr := range pairs {
			props := propsBySubject[pr.S]
			if len(props) == 0 || props[len(props)-1] != key.Prop {
				propsBySubject[pr.S] = append(props, key.Prop)
			}
			m.oiCount[objLevel{pr.O, key.Level}]++
		}
	}
	for s, props := range propsBySubject {
		set := cs.NewSet(props)
		m.csBySubject[s] = set
		key := set.Key()
		m.csCount[key]++
		m.csByKey[key] = set
	}
	return m, nil
}

// Layout returns the most recently published epoch's layout.
func (m *Maintainer) Layout() *Layout { return m.lay }

// AddTriples applies a batch of additions. Duplicate triples (already
// present) are ignored. The dictionary of the layout must already contain
// the triple terms (use Layout.Dict.Encode when building the batch).
func (m *Maintainer) AddTriples(ts []rdf.Triple) error {
	return m.apply(ts, nil)
}

// RemoveTriples applies a batch of removals. Absent triples are ignored.
func (m *Maintainer) RemoveTriples(ts []rdf.Triple) error {
	return m.apply(nil, ts)
}

// Apply applies additions and removals in one batch (removals first).
func (m *Maintainer) Apply(add, remove []rdf.Triple) error {
	return m.apply(add, remove)
}

// LevelMerge directs the advisor's HCS-style level collapse: every
// sub-partition of physical level From is rewritten into level Into
// (Into < From), and From's subjects move with their rows.
type LevelMerge struct {
	From int `json:"from"`
	Into int `json:"into"`
}

// Restructure applies an advisor recommendation as one batch: the level
// merges, then — via joinsFn, called on the post-merge layout — a fresh
// set of join reductions (joinsFn nil skips reductions; returning nil
// clears them). The whole batch publishes as a single new epoch, so
// queries pinned to older epochs (including checkpointed cursors holding
// leases) are never disturbed; the data itself is unchanged, only its
// level placement and the reduction metadata.
func (m *Maintainer) Restructure(merges []LevelMerge, joinsFn func(*Layout) (map[JoinKey]*JoinReduction, error)) error {
	if len(merges) == 0 && joinsFn == nil {
		return nil
	}
	m.physLevel = nil
	return m.mutate(func() error {
		if err := m.mergeLevels(merges); err != nil {
			return err
		}
		if joinsFn != nil {
			joins, err := joinsFn(m.lay)
			if err != nil {
				return err
			}
			m.lay.SetJoinReductions(joins)
			if err := m.lay.SaveJoinReductions(); err != nil {
				return err
			}
		}
		return nil
	})
}

// mergeLevels rewrites the sub-partitions of every merge source level
// into its target level and updates SI, OI, VP, the level remap, and the
// persisted indexes. The CS multiset is untouched — merging changes where
// a CS's rows live, not which CSs exist.
func (m *Maintainer) mergeLevels(merges []LevelMerge) error {
	if len(merges) == 0 {
		return nil
	}
	remap := make(map[int]int, len(merges))
	for _, mg := range merges {
		if mg.Into < 1 || mg.From <= mg.Into || mg.From > m.lay.NumLevels {
			return fmt.Errorf("hpart: bad level merge %d->%d", mg.From, mg.Into)
		}
		if _, dup := remap[mg.From]; dup {
			return fmt.Errorf("hpart: duplicate merge source level %d", mg.From)
		}
		remap[mg.From] = mg.Into
	}
	// Resolve chained merges (3->2 plus 2->1 is 3->1); From > Into makes
	// cycles impossible.
	resolve := func(l int) int {
		for {
			t, ok := remap[l]
			if !ok {
				return l
			}
			l = t
		}
	}

	// Move every source sub-partition's rows into its target, batching
	// appends so each target file is rewritten once. Source order is
	// sorted for deterministic generation assignment.
	var sources []SubPartKey
	for key := range m.lay.SubPartRows {
		if _, ok := remap[key.Level]; ok {
			sources = append(sources, key)
		}
	}
	sort.Slice(sources, func(i, j int) bool {
		if sources[i].Level != sources[j].Level {
			return sources[i].Level < sources[j].Level
		}
		return sources[i].Prop < sources[j].Prop
	})
	appends := make(map[SubPartKey][]Pair)
	var targets []SubPartKey
	for _, key := range sources {
		pairs, err := m.lay.ReadSubPartition(key)
		if err != nil {
			return err
		}
		to := resolve(key.Level)
		tkey := SubPartKey{Level: to, Prop: key.Prop}
		if _, seen := appends[tkey]; !seen {
			targets = append(targets, tkey)
		}
		appends[tkey] = append(appends[tkey], pairs...)
		for _, pr := range pairs {
			m.decOI(pr.O, key.Level)
			m.incOI(pr.O, to)
		}
		if err := m.writeSubPartition(key, nil); err != nil {
			return err
		}
	}
	for _, tkey := range targets {
		if err := m.appendRows(tkey, appends[tkey]); err != nil {
			return err
		}
	}

	// Subjects follow their rows.
	for s, level := range m.lay.SI {
		if _, ok := remap[level]; ok {
			m.lay.SI[s] = resolve(level)
		}
	}

	// Compose the new remap onto any existing one so future placements
	// (see placeSubjects) keep landing on the merged level.
	nl := make(map[int]int)
	for l := 1; l <= m.lay.NumLevels; l++ {
		if p := resolve(m.lay.PhysLevel(l)); p != l {
			nl[l] = p
		}
	}
	if len(nl) == 0 {
		nl = nil
	}
	m.lay.LevelMap = nl

	m.lay.sig.Store(0)
	m.recomputeLevelStats()
	return m.lay.writeIndexes()
}

// subjectDelta accumulates the per-subject changes of a batch.
type subjectDelta struct {
	addByProp map[rdf.ID][]rdf.ID // prop -> objects added
	delByProp map[rdf.ID][]rdf.ID // prop -> objects removed
}

func (m *Maintainer) apply(add, remove []rdf.Triple) error {
	if len(add) == 0 && len(remove) == 0 {
		return nil
	}
	return m.mutate(func() error { return m.applyBatch(add, remove) })
}

// mutate runs one mutation batch against a copy-on-write clone of the
// latest epoch — all file writes inside the batch go to fresh generation
// names, so nothing the clone does is observable until publish — and
// publishes the clone on success.
func (m *Maintainer) mutate(batch func() error) error {
	base := m.lay
	m.lay = base.Clone()
	m.created = make(map[string]cacheKey)
	defer func() { m.retired, m.created = nil, nil }()
	if err := batch(); err != nil {
		// The failed epoch is never published: concurrent queries are
		// unaffected. Delete the orphaned generation files it wrote and
		// restore the published layout. The maintainer's CS bookkeeping
		// may be torn; callers must rebuild it (see NewStoreMaintainer).
		for path, ck := range m.created {
			_ = m.lay.removeGeneration(path, ck)
		}
		m.lay = base
		return err
	}
	// The batch may have interned new terms; re-pin the clone's dictionary
	// snapshot before it becomes visible so the new epoch can decode every
	// ID it stores while older epochs keep their shorter prefix.
	m.lay.refreshDictSnapshot()
	m.store.publish(m.lay, m.retired)
	return nil
}

func (m *Maintainer) applyBatch(add, remove []rdf.Triple) error {
	deltas := make(map[rdf.ID]*subjectDelta)
	delta := func(s rdf.ID) *subjectDelta {
		d := deltas[s]
		if d == nil {
			d = &subjectDelta{
				addByProp: make(map[rdf.ID][]rdf.ID),
				delByProp: make(map[rdf.ID][]rdf.ID),
			}
			deltas[s] = d
		}
		return d
	}
	for _, t := range remove {
		d := delta(t.S)
		d.delByProp[t.P] = append(d.delByProp[t.P], t.O)
	}
	for _, t := range add {
		d := delta(t.S)
		d.addByProp[t.P] = append(d.addByProp[t.P], t.O)
	}

	// Phase 1: pull every affected subject's current rows out of its old
	// level files and compute its updated property map.
	rowsBySubject := make(map[rdf.ID]map[rdf.ID][]rdf.ID) // subject -> prop -> objects
	if err := m.extractSubjects(deltas, rowsBySubject); err != nil {
		return err
	}

	// Phase 2: apply the deltas in memory.
	for s, d := range deltas {
		rows := rowsBySubject[s]
		if rows == nil {
			rows = make(map[rdf.ID][]rdf.ID)
			rowsBySubject[s] = rows
		}
		for p, objs := range d.delByProp {
			rows[p] = removeAll(rows[p], objs)
			if len(rows[p]) == 0 {
				delete(rows, p)
			}
		}
		for p, objs := range d.addByProp {
			rows[p] = addDistinct(rows[p], objs)
		}
	}

	// Phase 3: update the CS multiset with each subject's new CS.
	for s := range deltas {
		old, had := m.csBySubject[s]
		if had {
			key := old.Key()
			m.csCount[key]--
			if m.csCount[key] == 0 {
				delete(m.csCount, key)
				delete(m.csByKey, key)
			}
		}
		props := make([]rdf.ID, 0, len(rowsBySubject[s]))
		for p := range rowsBySubject[s] {
			props = append(props, p)
		}
		if len(props) == 0 {
			delete(m.csBySubject, s)
			continue
		}
		set := cs.NewSet(props)
		m.csBySubject[s] = set
		key := set.Key()
		m.csCount[key]++
		m.csByKey[key] = set
	}

	// Phase 4: recompute the hierarchy over the live CS multiset and diff
	// levels. CSs whose level changed drag *all* their subjects along —
	// this is the "new levels introduced" case the paper flags.
	sets := make([]cs.Set, 0, len(m.csByKey))
	for _, set := range m.csByKey {
		sets = append(sets, set)
	}
	h := cs.BuildFromSets(sets)
	if h.MaxLevel() > MaxLevels {
		return fmt.Errorf("hpart: updated hierarchy depth %d exceeds supported %d", h.MaxLevel(), MaxLevels)
	}
	// Prune advisor level merges the rebuilt hierarchy invalidated before
	// the shift detection and placement below consult the map.
	m.pruneLevelMap(h.MaxLevel())

	moved := make(map[rdf.ID]bool, len(deltas))
	for s := range deltas {
		moved[s] = true
	}
	// SI holds physical levels; compare against the remapped level so an
	// advisor merge is not mistaken for a hierarchy shift (and undone) on
	// the next data batch. After every batch each subject sits at its
	// CS's physical level, so only a CS whose level changed can have
	// subjects outside the delta to move; CSs new to this batch hold
	// delta subjects only.
	levelByKey := make(map[string]int, len(m.csByKey))
	shifted := m.physLevel == nil
	for key, set := range m.csByKey {
		level := m.lay.PhysLevel(h.LevelOf(set))
		levelByKey[key] = level
		if old, ok := m.physLevel[key]; ok && old != level {
			shifted = true
		}
	}
	if shifted {
		if err := m.extractFromFiles(m.levelShifts(levelByKey, moved), rowsBySubject); err != nil {
			return err
		}
	}

	// Phase 5: write every moved subject's rows at its new level and
	// refresh the indexes.
	if err := m.placeSubjects(h, moved, rowsBySubject); err != nil {
		return err
	}
	m.lay.Hierarchy = h
	m.lay.NumLevels = h.MaxLevel()
	m.recomputeLevelStats()
	if err := m.lay.writeIndexes(); err != nil {
		return err
	}
	m.physLevel = levelByKey
	return nil
}

// levelShifts finds the subjects outside the batch whose CS now sits at
// another physical level, marks them moved, and groups them by the
// sub-partition they leave. Batching all pure level shifts into one
// extraction pass means that when a new CS renumbers many existing CSs,
// every affected sub-partition file is still read and rewritten exactly
// once.
func (m *Maintainer) levelShifts(levelByKey map[string]int, moved map[rdf.ID]bool) map[SubPartKey]map[rdf.ID]bool {
	shiftKeys := make(map[SubPartKey]map[rdf.ID]bool)
	for s, set := range m.csBySubject {
		if moved[s] {
			continue
		}
		if oldLevel := m.lay.SI[s]; levelByKey[set.Key()] != oldLevel {
			moved[s] = true
			for _, p := range set.Props() {
				key := SubPartKey{Level: oldLevel, Prop: p}
				if shiftKeys[key] == nil {
					shiftKeys[key] = make(map[rdf.ID]bool)
				}
				shiftKeys[key][s] = true
			}
		}
	}
	return shiftKeys
}

// pruneLevelMap drops level-remap entries a hierarchy rebuild made
// meaningless (logical level no longer exists, or the mapping stopped
// pointing downward). Subjects already merged stay at their physical
// level; dropping an entry merely lets a future batch migrate them back
// to their logical level when it next touches them.
func (m *Maintainer) pruneLevelMap(maxLevel int) {
	lm := m.lay.LevelMap
	if len(lm) == 0 {
		return
	}
	for logical, phys := range lm {
		if logical > maxLevel || phys >= logical || phys < 1 {
			delete(lm, logical)
		}
	}
	if len(lm) == 0 {
		m.lay.LevelMap = nil
	}
}

// extractSubjects removes all rows of the delta'd subjects from their old
// level files, collecting them into rowsBySubject.
func (m *Maintainer) extractSubjects(deltas map[rdf.ID]*subjectDelta, rowsBySubject map[rdf.ID]map[rdf.ID][]rdf.ID) error {
	// Group work per sub-partition so each file is rewritten once.
	byKey := make(map[SubPartKey]map[rdf.ID]bool)
	for s := range deltas {
		set, ok := m.csBySubject[s]
		if !ok {
			continue
		}
		level := m.lay.SI[s]
		for _, p := range set.Props() {
			key := SubPartKey{Level: level, Prop: p}
			if byKey[key] == nil {
				byKey[key] = make(map[rdf.ID]bool)
			}
			byKey[key][s] = true
		}
	}
	return m.extractFromFiles(byKey, rowsBySubject)
}

// extractFromFiles rewrites each listed sub-partition without the listed
// subjects' rows, collecting the removed rows and maintaining the OI
// refcounts.
func (m *Maintainer) extractFromFiles(byKey map[SubPartKey]map[rdf.ID]bool, rowsBySubject map[rdf.ID]map[rdf.ID][]rdf.ID) error {
	for key, subjects := range byKey {
		if !m.lay.HasSubPartition(key) {
			continue
		}
		pairs, err := m.lay.ReadSubPartition(key)
		if err != nil {
			return err
		}
		kept := pairs[:0:0]
		for _, pr := range pairs {
			if subjects[pr.S] {
				rows := rowsBySubject[pr.S]
				if rows == nil {
					rows = make(map[rdf.ID][]rdf.ID)
					rowsBySubject[pr.S] = rows
				}
				rows[key.Prop] = append(rows[key.Prop], pr.O)
				m.decOI(pr.O, key.Level)
			} else {
				kept = append(kept, pr)
			}
		}
		if err := m.writeSubPartition(key, kept); err != nil {
			return err
		}
	}
	return nil
}

// placeSubjects writes the moved subjects' rows into their new level
// files, batching appends per sub-partition.
func (m *Maintainer) placeSubjects(h *cs.Hierarchy, moved map[rdf.ID]bool, rowsBySubject map[rdf.ID]map[rdf.ID][]rdf.ID) error {
	appends := make(map[SubPartKey][]Pair)
	for s := range moved {
		set, ok := m.csBySubject[s]
		if !ok {
			delete(m.lay.SI, s) // subject vanished entirely
			continue
		}
		// Place at the physical level (honouring advisor merges), never
		// the raw hierarchy level.
		level := m.lay.PhysLevel(h.LevelOf(set))
		m.lay.SI[s] = level
		for p, objs := range rowsBySubject[s] {
			key := SubPartKey{Level: level, Prop: p}
			for _, o := range objs {
				appends[key] = append(appends[key], Pair{S: s, O: o})
				m.incOI(o, level)
			}
		}
	}
	for key, rows := range appends {
		if err := m.appendRows(key, rows); err != nil {
			return err
		}
	}
	return nil
}

// appendRows rewrites a sub-partition with rows added. The file's rows
// are already in (S, O) order, so only the new rows are sorted, then
// merged in.
func (m *Maintainer) appendRows(key SubPartKey, rows []Pair) error {
	var existing []Pair
	if m.lay.HasSubPartition(key) {
		var err error
		if existing, err = m.lay.ReadSubPartition(key); err != nil {
			return err
		}
	}
	slices.SortFunc(rows, comparePairs)
	merged := make([]Pair, 0, len(existing)+len(rows))
	for len(existing) > 0 && len(rows) > 0 {
		if comparePairs(rows[0], existing[0]) < 0 {
			merged, rows = append(merged, rows[0]), rows[1:]
		} else {
			merged, existing = append(merged, existing[0]), existing[1:]
		}
	}
	merged = append(append(merged, existing...), rows...)
	return m.writeSubPartition(key, merged)
}

func comparePairs(a, b Pair) int {
	return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.O, b.O))
}

// writeSubPartition persists a sub-partition's rows, which the caller
// passes in (S, O) order, and keeps SubPartRows, StoredBytes, and VP in
// sync. The rows go to the next
// generation the store hands out, under a fresh name, and the old file
// is retired for the epoch GC, leaving pinned snapshots untouched.
func (m *Maintainer) writeSubPartition(key SubPartKey, rows []Pair) error {
	lay := m.lay
	old := cacheKey{key: key, gen: lay.gen[key]}
	oldPath := lay.subPartFile(key)
	oldExists := false
	if info, err := lay.fs.Stat(oldPath); err == nil {
		lay.StoredBytes -= info.Size
		oldExists = true
	}
	if len(rows) == 0 {
		delete(lay.SubPartRows, key)
		delete(lay.gen, key)
		if oldExists {
			if err := m.dropFile(old, oldPath); err != nil {
				return err
			}
		}
		if lay.blooms != nil {
			delete(lay.blooms, key)
			if lay.fs.Exists(bloomPath(key)) {
				if err := lay.fs.Remove(bloomPath(key)); err != nil {
					return fmt.Errorf("hpart: %w", err)
				}
			}
		}
		lay.invalidateJoins(key.Prop)
		m.refreshVP(key.Prop)
		return nil
	}
	scol := make([]uint32, len(rows))
	ocol := make([]uint32, len(rows))
	for i, pr := range rows {
		scol[i] = pr.S
		ocol[i] = pr.O
	}
	gen := m.store.nextGen(key)
	path := dfs.GenPath(subPartPath(key), gen)
	w, err := lay.fs.Create(path)
	if err != nil {
		return fmt.Errorf("hpart: %w", err)
	}
	n, err := columnar.WriteColumns(w, [][]uint32{scol, ocol}, columnar.Plain)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("hpart: rewrite %s: %w", key, err)
	}
	lay.gen[key] = gen
	m.created[path] = cacheKey{key: key, gen: gen}
	if oldExists {
		if err := m.dropFile(old, oldPath); err != nil {
			return err
		}
	}
	lay.StoredBytes += n
	lay.SubPartRows[key] = len(rows)
	if lay.blooms != nil {
		// Bloom filters cannot delete, so a rewrite rebuilds the filter.
		b := buildBlooms(rows)
		lay.blooms[key] = b
		if err := lay.writeBlooms(key, b); err != nil {
			return err
		}
	}
	lay.invalidateJoins(key.Prop)
	m.refreshVP(key.Prop)
	return nil
}

// dropFile disposes of a superseded generation file: it is retired for
// the epoch GC — unless it was created by the current (unpublished)
// batch, in which case no epoch ever saw it and it is deleted now.
func (m *Maintainer) dropFile(ck cacheKey, path string) error {
	if _, fresh := m.created[path]; !fresh {
		m.retired = append(m.retired, retiredFile{path: path, ck: ck})
		return nil
	}
	delete(m.created, path)
	return m.lay.removeGeneration(path, ck)
}

// refreshVP recomputes one property's VP entry from the sub-partition
// inventory.
func (m *Maintainer) refreshVP(p rdf.ID) {
	var set LevelSet
	for key := range m.lay.SubPartRows {
		if key.Prop == p {
			set = set.Add(key.Level)
		}
	}
	if set.Empty() {
		delete(m.lay.VP, p)
	} else {
		m.lay.VP[p] = set
	}
}

func (m *Maintainer) incOI(o rdf.ID, level int) {
	k := objLevel{o, level}
	m.oiCount[k]++
	if m.oiCount[k] == 1 {
		m.lay.OI[o] = m.lay.OI[o].Add(level)
	}
}

func (m *Maintainer) decOI(o rdf.ID, level int) {
	k := objLevel{o, level}
	m.oiCount[k]--
	if m.oiCount[k] <= 0 {
		delete(m.oiCount, k)
		set := m.lay.OI[o] &^ (1 << (level - 1))
		if set.Empty() {
			delete(m.lay.OI, o)
		} else {
			m.lay.OI[o] = set
		}
	}
}

// recomputeLevelStats refreshes LevelTriples from the inventory.
func (m *Maintainer) recomputeLevelStats() {
	counts := make([]int64, m.lay.NumLevels)
	for key, rows := range m.lay.SubPartRows {
		if key.Level >= 1 && key.Level <= m.lay.NumLevels {
			counts[key.Level-1] += int64(rows)
		}
	}
	m.lay.LevelTriples = counts
}

// removeAll returns objs minus the removals (each removal deletes one
// occurrence; sub-partitions hold sets, so one is all there is).
func removeAll(objs, removals []rdf.ID) []rdf.ID {
	drop := make(map[rdf.ID]bool, len(removals))
	for _, o := range removals {
		drop[o] = true
	}
	out := objs[:0:0]
	for _, o := range objs {
		if !drop[o] {
			out = append(out, o)
		}
	}
	return out
}

// addDistinct appends additions not already present.
func addDistinct(objs, additions []rdf.ID) []rdf.ID {
	have := make(map[rdf.ID]bool, len(objs))
	for _, o := range objs {
		have[o] = true
	}
	for _, o := range additions {
		if !have[o] {
			have[o] = true
			objs = append(objs, o)
		}
	}
	return objs
}
