package hpart

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"ping/internal/bloom"
	"ping/internal/rdf"
)

// Workload-advised join reductions, after WORQ's reduced-by-join-pattern
// sets: for a join between two properties observed in the hot workload —
// say ?x a ?y . ?y b ?z — a Bloom filter over the b-side join values
// (here: all subjects of b, on every level) tells us which a-side
// sub-partitions contain no row whose object could ever meet a b row.
// Those sub-partitions cannot contribute to any answer of a query
// containing the join, so the planner drops them from the pattern's
// candidate list before loading. Filter false positives only retain
// extra sub-partitions; pruning is decided per sub-partition at advise
// time over the full data, so query answers are unaffected.

// JoinRole says which column of a property participates in a join.
const (
	JoinSubject byte = 'S'
	JoinObject  byte = 'O'
)

// JoinKey identifies a directed join pattern between two properties: the
// RoleA column of PropA equated with the RoleB column of PropB. The
// reduction prunes PropA-side sub-partitions; the symmetric pruning is a
// separate key with the sides swapped.
type JoinKey struct {
	PropA rdf.ID
	PropB rdf.ID
	RoleA byte
	RoleB byte
}

func (k JoinKey) String() string {
	return fmt.Sprintf("p%d.%c=p%d.%c", k.PropA, k.RoleA, k.PropB, k.RoleB)
}

// JoinReduction is one precomputed reduction: the filter over the
// PropB-side join values and the PropA sub-partitions it proved empty of
// joinable rows. Immutable once installed on a layout.
type JoinReduction struct {
	// Filter holds every RoleB value of PropB across all levels. Kept for
	// introspection and persistence; query planning consults only Pruned.
	Filter *bloom.Filter
	// Pruned lists the PropA sub-partitions in which no row's RoleA value
	// hits the filter — none of their rows can satisfy the join.
	Pruned map[SubPartKey]bool
}

// roleValue picks the joining column of a pair.
func roleValue(pr Pair, role byte) rdf.ID {
	if role == JoinSubject {
		return pr.S
	}
	return pr.O
}

// BuildJoinReduction computes the reduction for one join pattern by
// scanning the PropB sub-partitions into a filter and probing every PropA
// sub-partition against it. Returns a reduction with an empty Pruned map
// when nothing can be pruned (callers may discard it).
func (l *Layout) BuildJoinReduction(key JoinKey) (*JoinReduction, error) {
	if key.RoleA != JoinSubject && key.RoleA != JoinObject {
		return nil, fmt.Errorf("hpart: bad join role %q", key.RoleA)
	}
	if key.RoleB != JoinSubject && key.RoleB != JoinObject {
		return nil, fmt.Errorf("hpart: bad join role %q", key.RoleB)
	}
	var bKeys, aKeys []SubPartKey
	var bRows int
	for k, rows := range l.SubPartRows {
		if k.Prop == key.PropB {
			bKeys = append(bKeys, k)
			bRows += rows
		}
		if k.Prop == key.PropA {
			aKeys = append(aKeys, k)
		}
	}
	f := bloom.NewWithEstimates(uint64(bRows+1), bloomFalsePositiveRate)
	for _, k := range bKeys {
		pairs, err := l.ReadSubPartition(k)
		if err != nil {
			return nil, err
		}
		for _, pr := range pairs {
			f.Add(uint64(roleValue(pr, key.RoleB)))
		}
	}
	red := &JoinReduction{Filter: f, Pruned: make(map[SubPartKey]bool)}
	for _, k := range aKeys {
		pairs, err := l.ReadSubPartition(k)
		if err != nil {
			return nil, err
		}
		joinable := false
		for _, pr := range pairs {
			if f.Contains(uint64(roleValue(pr, key.RoleA))) {
				joinable = true
				break
			}
		}
		if !joinable {
			red.Pruned[k] = true
		}
	}
	return red, nil
}

// SetJoinReductions installs (or, with nil, clears) the layout's join
// reductions and invalidates the cached signature. Only call this on
// layouts not yet visible to queries — an unpublished maintainer clone, a
// freshly loaded layout, or a single-threaded offline tool. Published
// epochs must receive reductions through Maintainer.Restructure so
// checkpointed cursors pinned to the old epoch stay consistent.
func (l *Layout) SetJoinReductions(joins map[JoinKey]*JoinReduction) {
	if len(joins) == 0 {
		joins = nil
	}
	l.joins = joins
	l.sig.Store(0)
}

// JoinReductions returns the installed reductions (nil when none). The
// returned map and its reductions must not be mutated.
func (l *Layout) JoinReductions() map[JoinKey]*JoinReduction { return l.joins }

// JoinPruned reports whether the given PropA-side sub-partition is proved
// free of rows joinable under key.
func (l *Layout) JoinPruned(key JoinKey, sub SubPartKey) bool {
	red := l.joins[key]
	return red != nil && red.Pruned[sub]
}

// invalidateJoins drops every reduction touching prop: a rewrite of any of
// prop's sub-partitions may add joinable rows (breaking Pruned soundness)
// or new join values (breaking the filter's no-false-negative guarantee).
func (l *Layout) invalidateJoins(prop rdf.ID) {
	if len(l.joins) == 0 {
		return
	}
	for k := range l.joins {
		if k.PropA == prop || k.PropB == prop {
			delete(l.joins, k)
		}
	}
	if len(l.joins) == 0 {
		l.joins = nil
	}
	l.sig.Store(0)
}

// sortedJoinKeys returns the reduction keys in deterministic order.
func (l *Layout) sortedJoinKeys() []JoinKey {
	keys := make([]JoinKey, 0, len(l.joins))
	for k := range l.joins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.PropA != b.PropA {
			return a.PropA < b.PropA
		}
		if a.PropB != b.PropB {
			return a.PropB < b.PropB
		}
		if a.RoleA != b.RoleA {
			return a.RoleA < b.RoleA
		}
		return a.RoleB < b.RoleB
	})
	return keys
}

// joinsDigest hashes the installed reductions' schedule-relevant content:
// the join keys and their pruned sub-partition sets. Folded into
// Signature so a resumed cursor never silently observes a different
// pruning decision than the run it continues.
func (l *Layout) joinsDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, k := range l.sortedJoinKeys() {
		put(uint64(k.PropA))
		put(uint64(k.PropB))
		put(uint64(k.RoleA))
		put(uint64(k.RoleB))
		red := l.joins[k]
		pruned := make([]SubPartKey, 0, len(red.Pruned))
		for sk := range red.Pruned {
			pruned = append(pruned, sk)
		}
		sort.Slice(pruned, func(i, j int) bool {
			if pruned[i].Level != pruned[j].Level {
				return pruned[i].Level < pruned[j].Level
			}
			return pruned[i].Prop < pruned[j].Prop
		})
		put(uint64(len(pruned)))
		for _, sk := range pruned {
			put(uint64(sk.Level))
			put(uint64(sk.Prop))
		}
	}
	return h.Sum64()
}

// joinsPath is where SaveJoinReductions persists the reductions.
const joinsPath = "advisor/joins.jrd"

// joinsMagic versions the on-disk reduction format.
const joinsMagic = uint32(0x4a524431) // "JRD1"

// SaveJoinReductions persists the installed reductions, stamped with the
// layout's base (inventory-only) signature so a later Load can tell
// whether the data files still match. A layout with no reductions removes
// the file.
func (l *Layout) SaveJoinReductions() error {
	if len(l.joins) == 0 {
		if l.fs.Exists(joinsPath) {
			return l.fs.Remove(joinsPath)
		}
		return nil
	}
	w, err := l.fs.Create(joinsPath)
	if err != nil {
		return fmt.Errorf("hpart: %w", err)
	}
	err = l.writeJoins(w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("hpart: save join reductions: %w", err)
	}
	return nil
}

func (l *Layout) writeJoins(w io.Writer) error {
	var buf [8]byte
	put32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], v)
		_, err := w.Write(buf[:4])
		return err
	}
	put64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := w.Write(buf[:])
		return err
	}
	if err := put32(joinsMagic); err != nil {
		return err
	}
	if err := put64(l.BaseSignature()); err != nil {
		return err
	}
	keys := l.sortedJoinKeys()
	if err := put32(uint32(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		red := l.joins[k]
		if err := put32(uint32(k.PropA)); err != nil {
			return err
		}
		if err := put32(uint32(k.PropB)); err != nil {
			return err
		}
		if err := put32(uint32(k.RoleA)<<8 | uint32(k.RoleB)); err != nil {
			return err
		}
		if _, err := red.Filter.WriteTo(w); err != nil {
			return err
		}
		pruned := make([]SubPartKey, 0, len(red.Pruned))
		for sk := range red.Pruned {
			pruned = append(pruned, sk)
		}
		sort.Slice(pruned, func(i, j int) bool {
			if pruned[i].Level != pruned[j].Level {
				return pruned[i].Level < pruned[j].Level
			}
			return pruned[i].Prop < pruned[j].Prop
		})
		if err := put32(uint32(len(pruned))); err != nil {
			return err
		}
		for _, sk := range pruned {
			if err := put32(uint32(sk.Level)); err != nil {
				return err
			}
			if err := put32(uint32(sk.Prop)); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadJoinReductions restores persisted reductions if (and only if) their
// recorded base signature matches the loaded inventory — a store that was
// updated since the advisor ran silently drops the stale file's contents.
// A corrupt file is likewise ignored: reductions are a re-derivable
// acceleration artifact, never required for correctness.
func (l *Layout) loadJoinReductions() error {
	joins, err := l.readJoins()
	if err != nil || joins == nil {
		return nil
	}
	l.SetJoinReductions(joins)
	return nil
}

func (l *Layout) readJoins() (map[JoinKey]*JoinReduction, error) {
	r, err := l.fs.Open(joinsPath)
	if err != nil {
		return nil, nil // never advised; nothing to load
	}
	defer r.Close()
	var buf [8]byte
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:4]), nil
	}
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	magic, err := get32()
	if err != nil || magic != joinsMagic {
		return nil, fmt.Errorf("hpart: %s: bad magic", joinsPath)
	}
	baseSig, err := get64()
	if err != nil {
		return nil, fmt.Errorf("hpart: %s: %w", joinsPath, err)
	}
	if baseSig != l.BaseSignature() {
		return nil, nil // data changed since the advisor ran; reductions stale
	}
	n, err := get32()
	if err != nil {
		return nil, fmt.Errorf("hpart: %s: %w", joinsPath, err)
	}
	// Maps grow as entries are read, never from a count off disk: a
	// short file fails at EOF instead of allocating for what it claims.
	joins := make(map[JoinKey]*JoinReduction)
	for i := uint32(0); i < n; i++ {
		pa, err := get32()
		if err != nil {
			return nil, fmt.Errorf("hpart: %s: %w", joinsPath, err)
		}
		pb, err := get32()
		if err != nil {
			return nil, fmt.Errorf("hpart: %s: %w", joinsPath, err)
		}
		roles, err := get32()
		if err != nil {
			return nil, fmt.Errorf("hpart: %s: %w", joinsPath, err)
		}
		key := JoinKey{
			PropA: rdf.ID(pa),
			PropB: rdf.ID(pb),
			RoleA: byte(roles >> 8),
			RoleB: byte(roles),
		}
		f, err := bloom.Read(r)
		if err != nil {
			return nil, fmt.Errorf("hpart: %s: %w", joinsPath, err)
		}
		np, err := get32()
		if err != nil {
			return nil, fmt.Errorf("hpart: %s: %w", joinsPath, err)
		}
		red := &JoinReduction{Filter: f, Pruned: make(map[SubPartKey]bool)}
		for j := uint32(0); j < np; j++ {
			lv, err := get32()
			if err != nil {
				return nil, fmt.Errorf("hpart: %s: %w", joinsPath, err)
			}
			pp, err := get32()
			if err != nil {
				return nil, fmt.Errorf("hpart: %s: %w", joinsPath, err)
			}
			red.Pruned[SubPartKey{Level: int(lv), Prop: rdf.ID(pp)}] = true
		}
		joins[key] = red
	}
	return joins, nil
}
