// Package hpart implements PING's hierarchical partitioner (Algorithm 1 of
// the paper, §3.5–3.8). Given an RDF graph it
//
//  1. extracts the CS hierarchy (package cs),
//  2. assigns every triple to the level of its subject's characteristic
//     set — the levels L₁..Lₙ are disjoint (modularity, Thm 3.4) and
//     jointly cover the graph (losslessness, Thm 3.5),
//  3. vertically sub-partitions every level by property: L_i[p] holds only
//     the (subject, object) pairs for p — the predicate is implied by the
//     file name, saving space (§3.6),
//  4. builds the three indexes of §3.7: VP (property → levels),
//     SI (subject → level), OI (object → levels),
//
// and stores sub-partitions plus indexes as columnar files in a dfs
// file system, mirroring the paper's Parquet-on-HDFS layout.
package hpart

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ping/internal/columnar"
	"ping/internal/cs"
	"ping/internal/dfs"
	"ping/internal/rdf"
)

// Pair is one row of a vertical sub-partition: a subject and object ID.
// It aliases rdf.SOPair so engines and baselines share the representation.
type Pair = rdf.SOPair

// SubPartKey identifies a vertical sub-partition L_level[Prop].
type SubPartKey struct {
	Level int
	Prop  rdf.ID
}

func (k SubPartKey) String() string { return fmt.Sprintf("L%d[p%d]", k.Level, k.Prop) }

// Layout is a partitioned dataset: the CS hierarchy, the three indexes,
// per-sub-partition row counts, and the file system holding the data.
type Layout struct {
	// Dict is shared with the source graph so IDs remain comparable.
	Dict *rdf.Dict
	// dictView pins the dictionary prefix visible to this snapshot: the
	// (length, signature) captured when the epoch was built. Queries
	// resolve constants and decode answers through the view, so a
	// maintainer growing the shared Dict never leaks new terms into an
	// older epoch. Nil only for hand-assembled layouts (see DictView).
	dictView *rdf.DictView
	// dictBuild is the wall-clock cost of capturing and signing the
	// epoch's dictionary snapshot (for loaded layouts: re-signing the
	// persisted dictionary).
	dictBuild time.Duration
	// Hierarchy is the mined CS hierarchy.
	Hierarchy *cs.Hierarchy
	// NumLevels is the hierarchy depth (number of partitions).
	NumLevels int

	// VP maps each property to the levels where it occurs (§3.7).
	VP map[rdf.ID]LevelSet
	// SI maps each subject to its unique level (unique by modularity).
	SI map[rdf.ID]int
	// OI maps each object to the levels where it occurs as an object.
	OI map[rdf.ID]LevelSet

	// LevelMap remaps logical hierarchy levels to the physical level whose
	// files actually hold their data. Nil (or an absent entry) means
	// identity. The layout advisor merges cold adjacent CS levels by
	// rewriting their files into a shallower level and recording the
	// remap here, so later maintenance batches keep placing subjects of
	// the merged CSs at the physical level instead of undoing the merge.
	// Entries always map downward (physical < logical) and are
	// normalized: a physical level is never itself remapped.
	LevelMap map[int]int

	// SubPartRows holds the row count of every sub-partition, used for
	// join ordering and data-access accounting without touching files.
	SubPartRows map[SubPartKey]int
	// LevelTriples[i] is the number of triples on level i+1 (Fig. 5).
	LevelTriples []int64

	// PreprocessTime is the wall-clock duration of Partition.
	PreprocessTime time.Duration
	// StoredBytes is the total size of all written partition files
	// (excluding indexes), the numerator of the Fig. 7 reduction factor.
	StoredBytes int64

	fs *dfs.FS
	// blooms holds the optional per-sub-partition membership filters
	// (§6.2 extension); nil when not built.
	blooms map[SubPartKey]SubPartBlooms
	// joins holds the optional workload-advised join-reduction filters
	// (see joinreduce.go); nil when none are installed. Folded into
	// Signature because reductions change which sub-partitions a query
	// schedule visits.
	joins map[JoinKey]*JoinReduction

	// gen maps a sub-partition to the generation of its backing file;
	// an absent key means generation 0, the path Partition writes. Every
	// rewrite takes a fresh generation from the Store so snapshots
	// pinned to older epochs keep reading their own (still present)
	// files.
	gen map[SubPartKey]uint64
	// epoch numbers the snapshot this layout represents; 0 for a fresh
	// or loaded layout, assigned by Store.publish afterwards.
	epoch uint64
	// sig caches the content signature (see Signature); 0 means not yet
	// computed. Deliberately not copied by Clone — a mutated clone must
	// hash afresh.
	sig atomic.Uint64

	// dictFiles tracks the persisted part of Dict (see SaveDict); shared
	// by every clone.
	dictFiles *dictFiles

	// cache is the optional LRU of decoded sub-partitions (see
	// EnableSubPartCache); cacheMu guards installation/removal.
	cacheMu sync.Mutex
	cache   *subPartCache
}

// Options configures Partition.
type Options struct {
	// FS is the destination file system; nil means a fresh in-memory one.
	FS *dfs.FS
	// Encoding selects the columnar encoding for sub-partition files.
	// PING's storage policy is plain varint columns (predicate names are
	// dropped; heavier compression is left to the baselines). Zero value
	// (Plain) is the paper-faithful setting.
	Encoding columnar.Encoding
	// BuildBlooms additionally builds per-sub-partition Bloom filters
	// that the query processor can use to skip files that cannot contain
	// a pattern's constant (the §6.2 extension).
	BuildBlooms bool
}

// Partition runs Algorithm 1 over the graph. The input graph should be
// deduplicated; duplicate triples would otherwise inflate sub-partitions.
func Partition(g *rdf.Graph, opts Options) (*Layout, error) {
	start := time.Now()
	fs := opts.FS
	if fs == nil {
		fs = dfs.New(dfs.Config{})
	}

	// Line 2: extract the CS hierarchy.
	csBySubject := cs.Extract(g)
	h := cs.Build(csBySubject)
	if h.MaxLevel() > MaxLevels {
		return nil, fmt.Errorf("hpart: hierarchy depth %d exceeds supported %d", h.MaxLevel(), MaxLevels)
	}

	lay := &Layout{
		Dict:         g.Dict,
		Hierarchy:    h,
		NumLevels:    h.MaxLevel(),
		VP:           make(map[rdf.ID]LevelSet),
		SI:           make(map[rdf.ID]int, len(csBySubject)),
		OI:           make(map[rdf.ID]LevelSet),
		SubPartRows:  make(map[SubPartKey]int),
		LevelTriples: make([]int64, h.MaxLevel()),
		gen:          make(map[SubPartKey]uint64),
		fs:           fs,
		dictFiles:    new(dictFiles),
	}

	// Pre-resolve each subject's level once, into a dense array indexed
	// by term ID (the dictionary hands out contiguous IDs). Dense arrays
	// replace four hash-map writes per triple in the hot loop below.
	nTerms := g.Dict.Len()
	levelOf := make([]uint8, nTerms)
	for s, set := range csBySubject {
		levelOf[s] = uint8(h.LevelOf(set))
	}
	vp := make([]LevelSet, nTerms)
	oi := make([]LevelSet, nTerms)

	// Lines 3-12: one pass over the triples building sub-partitions and
	// indexes.
	sub := make(map[SubPartKey][]Pair)
	for _, t := range g.Triples {
		i := int(levelOf[t.S])
		key := SubPartKey{Level: i, Prop: t.P}
		sub[key] = append(sub[key], Pair{S: t.S, O: t.O})
		lay.LevelTriples[i-1]++
		vp[t.P] = vp[t.P].Add(i)
		oi[t.O] = oi[t.O].Add(i)
	}
	// Materialize the sparse index maps from the dense arrays.
	for id := 0; id < nTerms; id++ {
		if vp[id] != 0 {
			lay.VP[rdf.ID(id)] = vp[id]
		}
		if oi[id] != 0 {
			lay.OI[rdf.ID(id)] = oi[id]
		}
		if l := levelOf[id]; l != 0 {
			lay.SI[rdf.ID(id)] = int(l)
		}
	}

	// Persist sub-partitions as two-column files.
	if opts.BuildBlooms {
		lay.blooms = make(map[SubPartKey]SubPartBlooms, len(sub))
	}
	// Files are created in key order so block placement, and with it
	// every block file and the manifest, is the same on every run.
	for _, key := range sortedSubParts(sub) {
		pairs := sub[key]
		// Persist in (S, O) order: sorted columns delta-compress better on
		// disk and let the resident cache pack without re-sorting.
		sort.Slice(pairs, func(i, j int) bool { return rdf.SOPairLess(pairs[i], pairs[j]) })
		lay.SubPartRows[key] = len(pairs)
		if opts.BuildBlooms {
			b := buildBlooms(pairs)
			lay.blooms[key] = b
			if err := lay.writeBlooms(key, b); err != nil {
				return nil, err
			}
		}
		scol := make([]uint32, len(pairs))
		ocol := make([]uint32, len(pairs))
		for i, pr := range pairs {
			scol[i] = pr.S
			ocol[i] = pr.O
		}
		w, err := fs.Create(subPartPath(key))
		if err != nil {
			return nil, fmt.Errorf("hpart: %w", err)
		}
		n, err := columnar.WriteColumns(w, [][]uint32{scol, ocol}, opts.Encoding)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("hpart: write %s: %w", key, err)
		}
		lay.StoredBytes += n
	}

	if err := lay.writeIndexes(); err != nil {
		return nil, err
	}
	lay.refreshDictSnapshot()
	lay.PreprocessTime = time.Since(start)
	return lay, nil
}

// refreshDictSnapshot re-pins the layout to the dictionary's current
// (length, signature) prefix, timing the capture. Called when a layout is
// built, loaded, or republished after a maintenance batch that interned
// new terms.
func (l *Layout) refreshDictSnapshot() {
	t0 := time.Now()
	l.dictView = l.Dict.Snapshot()
	l.dictBuild = time.Since(t0)
}

// DictView returns the dictionary prefix pinned to this snapshot. Layouts
// assembled by hand (tests) without a snapshot fall back to viewing the
// dictionary's current state; the fallback never mutates the layout, so
// concurrent callers are safe.
func (l *Layout) DictView() *rdf.DictView {
	if l.dictView != nil {
		return l.dictView
	}
	return l.Dict.Snapshot()
}

// DictBuildTime reports the cost of capturing this epoch's dictionary
// snapshot.
func (l *Layout) DictBuildTime() time.Duration { return l.dictBuild }

// subPartPath is the generation-0 path of a sub-partition — the name
// Partition writes. Rewrites by an epoch maintainer land on successive
// generations of this path (see Layout.subPartFile).
func subPartPath(key SubPartKey) string {
	return fmt.Sprintf("levels/L%02d/p%d.pcol", key.Level, key.Prop)
}

// subPartFile is the path of the sub-partition file this layout snapshot
// reads: the generation the layout's gen map pins.
func (l *Layout) subPartFile(key SubPartKey) string {
	return dfs.GenPath(subPartPath(key), l.gen[key])
}

// Generation reports the file generation backing a sub-partition in this
// snapshot (0 for files written by Partition and never rewritten).
func (l *Layout) Generation(key SubPartKey) uint64 { return l.gen[key] }

// Epoch reports the snapshot's epoch number: 0 for a fresh or loaded
// layout, and the publish sequence number for layouts obtained from a
// Store.
func (l *Layout) Epoch() uint64 { return l.epoch }

// Clone returns a copy-on-write snapshot of the layout: the index maps,
// sub-partition inventory, generations, and bloom filters are copied so
// the clone can be mutated without affecting concurrent readers of the
// receiver. The dictionary, hierarchy, file system, and the decoded
// sub-partition cache are shared — the cache is keyed by file generation,
// so entries of different snapshots never collide.
func (l *Layout) Clone() *Layout {
	cp := &Layout{
		Dict:           l.Dict,
		dictView:       l.dictView,
		dictBuild:      l.dictBuild,
		Hierarchy:      l.Hierarchy,
		NumLevels:      l.NumLevels,
		LevelMap:       maps.Clone(l.LevelMap),
		VP:             maps.Clone(l.VP),
		SI:             maps.Clone(l.SI),
		OI:             maps.Clone(l.OI),
		SubPartRows:    maps.Clone(l.SubPartRows),
		LevelTriples:   append([]int64(nil), l.LevelTriples...),
		PreprocessTime: l.PreprocessTime,
		StoredBytes:    l.StoredBytes,
		fs:             l.fs,
		blooms:         maps.Clone(l.blooms),
		joins:          maps.Clone(l.joins),
		gen:            maps.Clone(l.gen),
		epoch:          l.epoch,
		dictFiles:      l.dictFiles,
		cache:          l.subPartCache(),
	}
	if cp.gen == nil {
		cp.gen = make(map[SubPartKey]uint64)
	}
	return cp
}

// FS returns the file system backing the layout.
func (l *Layout) FS() *dfs.FS { return l.fs }

// SubPartitions returns the keys of all non-empty sub-partitions.
func (l *Layout) SubPartitions() []SubPartKey {
	out := make([]SubPartKey, 0, len(l.SubPartRows))
	for k := range l.SubPartRows {
		out = append(out, k)
	}
	return out
}

// HasSubPartition reports whether L_level[prop] exists (is non-empty).
func (l *Layout) HasSubPartition(key SubPartKey) bool {
	_, ok := l.SubPartRows[key]
	return ok
}

// ReadSubPartition loads the (subject, object) pairs of L_level[prop] from
// storage. Every call re-reads the file, so callers' row accounting
// reflects real data access.
func (l *Layout) ReadSubPartition(key SubPartKey) ([]Pair, error) {
	return l.ReadSubPartitionCtx(context.Background(), key)
}

// ReadSubPartitionCtx is ReadSubPartition honouring context cancellation:
// the dfs read (including its failover retries) aborts with ctx.Err()
// once ctx is done, so a stuck storage node cannot hang a query past its
// deadline.
func (l *Layout) ReadSubPartitionCtx(ctx context.Context, key SubPartKey) ([]Pair, error) {
	data, err := l.fs.ReadFileCtx(ctx, l.subPartFile(key))
	if err != nil {
		return nil, fmt.Errorf("hpart: open %s: %w", key, err)
	}
	cols, err := columnar.DecodeColumns(data)
	if err != nil {
		return nil, fmt.Errorf("hpart: read %s: %w", key, err)
	}
	if len(cols) != 2 || len(cols[0]) != len(cols[1]) {
		return nil, fmt.Errorf("hpart: %s: malformed sub-partition", key)
	}
	pairs := make([]Pair, len(cols[0]))
	for i := range pairs {
		pairs[i] = Pair{S: cols[0][i], O: cols[1][i]}
	}
	// Sub-partition files are written in (S, O) order (Partition consumes
	// SPO-sorted deduplicated graphs; the maintainer sorts before every
	// rewrite), but resident compression depends on it, so restore the
	// invariant defensively for files from older tools.
	if !sort.SliceIsSorted(pairs, func(i, j int) bool { return rdf.SOPairLess(pairs[i], pairs[j]) }) {
		sort.Slice(pairs, func(i, j int) bool { return rdf.SOPairLess(pairs[i], pairs[j]) })
	}
	return pairs, nil
}

// SubjectLevels returns the SI entry for a subject as a LevelSet (empty if
// the term never occurs as a subject).
func (l *Layout) SubjectLevels(id rdf.ID) LevelSet {
	if lv, ok := l.SI[id]; ok {
		return LevelSet(0).Add(lv)
	}
	return 0
}

// ObjectLevels returns the OI entry for an object (empty if the term never
// occurs as an object).
func (l *Layout) ObjectLevels(id rdf.ID) LevelSet { return l.OI[id] }

// PropertyLevels returns the VP entry for a property (empty if absent).
func (l *Layout) PropertyLevels(id rdf.ID) LevelSet { return l.VP[id] }

// AllLevels returns the set {1..NumLevels}.
func (l *Layout) AllLevels() LevelSet {
	var s LevelSet
	for i := 1; i <= l.NumLevels; i++ {
		s = s.Add(i)
	}
	return s
}

// PhysLevel resolves a logical hierarchy level to the physical level whose
// files hold its data (identity unless an advisor merge remapped it).
func (l *Layout) PhysLevel(level int) int {
	if l.LevelMap == nil {
		return level
	}
	if p, ok := l.LevelMap[level]; ok {
		return p
	}
	return level
}

// TotalTriples returns the number of partitioned triples.
func (l *Layout) TotalTriples() int64 {
	var n int64
	for _, c := range l.LevelTriples {
		n += c
	}
	return n
}
