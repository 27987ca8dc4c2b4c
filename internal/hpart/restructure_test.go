package hpart

import (
	"sync"
	"testing"

	"ping/internal/rdf"
)

// rowMultiset flattens a layout into (prop, subject, object) triples,
// ignoring level placement — restructuring moves rows between levels but
// must never create, drop, or duplicate one.
func rowMultiset(t *testing.T, lay *Layout) map[[3]rdf.ID]int {
	t.Helper()
	out := make(map[[3]rdf.ID]int)
	for _, key := range lay.SubPartitions() {
		pairs, err := lay.ReadSubPartition(key)
		if err != nil {
			t.Fatalf("read %v: %v", key, err)
		}
		for _, pr := range pairs {
			out[[3]rdf.ID{key.Prop, pr.S, pr.O}]++
		}
	}
	return out
}

func sameRows(t *testing.T, got, want map[[3]rdf.ID]int, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct rows, want %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: row %v count %d, want %d", label, k, got[k], n)
		}
	}
}

func TestMergeLevelsMovesRowsAndRemapsIndexes(t *testing.T) {
	g := randomGraph(21, 80, 5)
	lay := rebuild(t, g)
	if lay.NumLevels < 3 {
		t.Fatalf("levels = %d, want >= 3", lay.NumLevels)
	}
	before := rowMultiset(t, lay)

	m, err := NewStoreMaintainer(NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	// Collapse the two deepest levels into the level below them.
	into := lay.NumLevels - 2
	merges := []LevelMerge{
		{From: lay.NumLevels - 1, Into: into},
		{From: lay.NumLevels, Into: into},
	}
	if err := m.Restructure(merges, nil); err != nil {
		t.Fatal(err)
	}
	lay = m.Layout()

	sameRows(t, rowMultiset(t, lay), before, "after merge")
	for _, key := range lay.SubPartitions() {
		if key.Level > into {
			t.Fatalf("sub-partition %v above the merge target survived", key)
		}
	}
	for _, mg := range merges {
		if got := lay.PhysLevel(mg.From); got != into {
			t.Errorf("PhysLevel(%d) = %d, want %d", mg.From, got, into)
		}
	}
	// SI must point at physical levels so lookups hit real files.
	for s, l := range lay.SI {
		if l == merges[0].From || l == merges[1].From {
			t.Fatalf("SI[%d] = %d still references a merged-away level", s, l)
		}
	}
	// OI must agree with the actual object placement after the move.
	for _, key := range lay.SubPartitions() {
		pairs, err := lay.ReadSubPartition(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range pairs {
			if !lay.OI[pr.O].Has(key.Level) {
				t.Fatalf("OI[%d] misses level %d after merge", pr.O, key.Level)
			}
		}
	}
}

func TestMergeLevelsRejectsBadPlans(t *testing.T) {
	lay := rebuild(t, randomGraph(22, 40, 4))
	m, err := NewStoreMaintainer(NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	for _, merges := range [][]LevelMerge{
		{{From: 2, Into: 2}},                     // not strictly downward
		{{From: 1, Into: 2}},                     // upward
		{{From: 2, Into: 0}},                     // below the hierarchy
		{{From: lay.NumLevels + 1, Into: 1}},     // beyond the hierarchy
		{{From: 3, Into: 1}, {From: 3, Into: 2}}, // duplicate source
	} {
		if err := m.Restructure(merges, nil); err == nil {
			t.Errorf("merges %v: accepted, want error", merges)
		}
	}
}

// TestMaintenanceKeepsMergedPlacement is the regression the advisor
// depends on: a data batch after a merge must keep placing subjects at
// the merged (physical) level, not silently undo the merge by treating
// the remap as a hierarchy shift.
func TestMaintenanceKeepsMergedPlacement(t *testing.T) {
	g := randomGraph(23, 60, 4)
	lay := rebuild(t, g)
	if lay.NumLevels < 3 {
		t.Fatalf("levels = %d, want >= 3", lay.NumLevels)
	}
	m, err := NewStoreMaintainer(NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	from, into := lay.NumLevels, lay.NumLevels-1
	if err := m.Restructure([]LevelMerge{{From: from, Into: into}}, nil); err != nil {
		t.Fatal(err)
	}
	lay = m.Layout()

	// An unrelated new subject at level 1.
	add := []rdf.Triple{{
		S: g.Dict.EncodeIRI("http://x/fresh"),
		P: g.Dict.EncodeIRI("http://x/p0"),
		O: g.Dict.EncodeIRI("http://x/o0"),
	}}
	if err := m.Apply(add, nil); err != nil {
		t.Fatal(err)
	}
	lay = m.Layout()
	for _, key := range lay.SubPartitions() {
		if key.Level == from {
			t.Fatalf("data batch resurrected merged level %d (%v)", from, key)
		}
	}
	if got := lay.PhysLevel(from); got != into {
		t.Errorf("PhysLevel(%d) = %d after data batch, want %d", from, got, into)
	}
}

func TestLevelMapAndJoinsPersistAcrossReload(t *testing.T) {
	g := randomGraph(24, 80, 5)
	lay := rebuild(t, g)
	store := NewStore(lay)
	m, err := NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}
	p0 := g.Dict.LookupIRI("http://x/p0")
	p1 := g.Dict.LookupIRI("http://x/p1")
	key := JoinKey{PropA: p0, PropB: p1, RoleA: JoinSubject, RoleB: JoinSubject}
	err = m.Restructure(
		[]LevelMerge{{From: lay.NumLevels, Into: lay.NumLevels - 1}},
		func(l *Layout) (map[JoinKey]*JoinReduction, error) {
			red, err := l.BuildJoinReduction(key)
			if err != nil {
				return nil, err
			}
			return map[JoinKey]*JoinReduction{key: red}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	lay = m.Layout()
	if err := lay.SaveDict(); err != nil {
		t.Fatal(err)
	}

	reloaded, err := Load(lay.FS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded.LevelMap) != len(lay.LevelMap) {
		t.Fatalf("reloaded LevelMap %v, want %v", reloaded.LevelMap, lay.LevelMap)
	}
	for l, p := range lay.LevelMap {
		if reloaded.LevelMap[l] != p {
			t.Fatalf("reloaded LevelMap[%d] = %d, want %d", l, reloaded.LevelMap[l], p)
		}
	}
	want := lay.JoinReductions()[key]
	got := reloaded.JoinReductions()[key]
	if want == nil {
		t.Fatal("reduction not installed")
	}
	if got == nil {
		t.Fatal("reduction not reloaded")
	}
	if len(got.Pruned) != len(want.Pruned) {
		t.Fatalf("reloaded pruned set %d entries, want %d", len(got.Pruned), len(want.Pruned))
	}
	for sk := range want.Pruned {
		if !got.Pruned[sk] {
			t.Fatalf("reloaded pruned set misses %v", sk)
		}
	}
	// The signature folds the reductions in, so a reload must agree with
	// the in-memory layout (cursors compare signatures across restarts).
	if got, want := reloaded.Signature(), lay.Signature(); got != want {
		t.Fatalf("reloaded signature %016x, want %016x", got, want)
	}
	// Rewriting a joined property invalidates its reduction in memory,
	// and the now-stale joins file must be dropped on the next load
	// rather than trusted against the changed data.
	m2, err := NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}
	add := []rdf.Triple{{
		S: g.Dict.EncodeIRI("http://x/post"),
		P: p1,
		O: g.Dict.EncodeIRI("http://x/o2"),
	}}
	if err := m2.Apply(add, nil); err != nil {
		t.Fatal(err)
	}
	lay = m2.Layout()
	if lay.JoinReductions()[key] != nil {
		t.Fatal("rewriting a joined property did not invalidate its reduction")
	}
	if err := lay.SaveDict(); err != nil {
		t.Fatal(err)
	}
	stale, err := Load(lay.FS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale.JoinReductions()) != 0 {
		t.Fatal("stale joins file survived a reload after the data changed")
	}
}

func TestJoinReductionSoundness(t *testing.T) {
	g := randomGraph(25, 100, 5)
	lay := rebuild(t, g)
	p0 := g.Dict.LookupIRI("http://x/p0")
	p1 := g.Dict.LookupIRI("http://x/p1")
	for _, key := range []JoinKey{
		{PropA: p0, PropB: p1, RoleA: JoinSubject, RoleB: JoinSubject},
		{PropA: p0, PropB: p1, RoleA: JoinObject, RoleB: JoinSubject},
		{PropA: p1, PropB: p0, RoleA: JoinSubject, RoleB: JoinObject},
	} {
		red, err := lay.BuildJoinReduction(key)
		if err != nil {
			t.Fatal(err)
		}
		// Exact join-value sets: a pruned sub-partition must truly share
		// no value with PropB's side. Bloom false positives may retain a
		// useless sub-partition, never prune a useful one.
		bVals := make(map[rdf.ID]bool)
		for _, sk := range lay.SubPartitions() {
			if sk.Prop != key.PropB {
				continue
			}
			pairs, err := lay.ReadSubPartition(sk)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range pairs {
				if key.RoleB == JoinSubject {
					bVals[pr.S] = true
				} else {
					bVals[pr.O] = true
				}
			}
		}
		for sk := range red.Pruned {
			if sk.Prop != key.PropA {
				t.Fatalf("%v pruned a sub-partition of the wrong property: %v", key, sk)
			}
			pairs, err := lay.ReadSubPartition(sk)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range pairs {
				v := pr.S
				if key.RoleA == JoinObject {
					v = pr.O
				}
				if bVals[v] {
					t.Fatalf("%v pruned %v which shares join value %d", key, sk, v)
				}
			}
		}
	}
}

// TestRestructureSnapshotIsolation: an advisor apply is an epoch publish
// like any update — pinned snapshots keep their rows and their levels.
func TestRestructureSnapshotIsolation(t *testing.T) {
	g := randomGraph(26, 80, 5)
	lay := rebuild(t, g)
	store := NewStore(lay)
	m, err := NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}

	pinned, release := store.Pin()
	defer release()
	before := readAll(t, pinned)
	beforeRows := rowMultiset(t, pinned)

	p0 := g.Dict.LookupIRI("http://x/p0")
	p1 := g.Dict.LookupIRI("http://x/p1")
	key := JoinKey{PropA: p0, PropB: p1, RoleA: JoinSubject, RoleB: JoinSubject}
	err = m.Restructure(
		[]LevelMerge{{From: lay.NumLevels, Into: lay.NumLevels - 1}},
		func(l *Layout) (map[JoinKey]*JoinReduction, error) {
			red, err := l.BuildJoinReduction(key)
			if err != nil {
				return nil, err
			}
			return map[JoinKey]*JoinReduction{key: red}, nil
		})
	if err != nil {
		t.Fatal(err)
	}

	if got := store.Epoch(); got != 1 {
		t.Fatalf("store epoch = %d, want 1", got)
	}
	if pinned.Epoch() != 0 {
		t.Fatalf("pinned epoch = %d, want 0", pinned.Epoch())
	}
	if pinned.LevelMap != nil {
		t.Fatal("merge leaked into the pinned snapshot's LevelMap")
	}
	if len(pinned.JoinReductions()) != 0 {
		t.Fatal("join reductions leaked into the pinned snapshot")
	}
	after := readAll(t, pinned)
	for k, want := range before {
		if !pairsEqual(after[k], want) {
			t.Fatalf("pinned snapshot rows changed for %v", k)
		}
	}
	cur := store.Current()
	sameRows(t, rowMultiset(t, cur), beforeRows, "published epoch")
	if cur.Signature() == pinned.Signature() {
		t.Fatal("restructure did not change the layout signature")
	}
}

// TestBloomRebuildNoFalseNegatives is the maintainer Bloom-rebuild
// contract: after batches rewrite sub-partitions (with concurrent pinned
// readers racing the publishes), every resident row is contained in its
// sub-partition's filters. Run under -race.
func TestBloomRebuildNoFalseNegatives(t *testing.T) {
	g := randomGraph(27, 60, 4)
	lay, err := Partition(g, Options{BuildBlooms: true})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(lay)
	m, err := NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, release := store.Pin()
				for _, key := range snap.SubPartitions() {
					if _, err := snap.ReadSubPartition(key); err != nil {
						t.Errorf("pinned read %v: %v", key, err)
						release()
						return
					}
				}
				release()
			}
		}()
	}

	// Each batch gives an existing subject a new property, moving it to a
	// new CS and rewriting (rebuilding the filters of) its sub-partitions.
	for i := 0; i < 4; i++ {
		add := []rdf.Triple{{
			S: g.Dict.LookupIRI("http://x/s0"),
			P: g.Dict.EncodeIRI("http://x/extra" + string(rune('a'+i))),
			O: g.Dict.EncodeIRI("http://x/oX"),
		}}
		if err := m.Apply(add, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	cur := store.Current()
	if !cur.HasBlooms() {
		t.Fatal("published epoch lost its blooms")
	}
	for _, key := range cur.SubPartitions() {
		b := cur.Blooms(key)
		if b == nil {
			t.Fatalf("no filters for %v after rewrites", key)
		}
		pairs, err := cur.ReadSubPartition(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range pairs {
			if !b.Subjects.Contains(uint64(pr.S)) {
				t.Fatalf("%v: subject filter false negative for %d", key, pr.S)
			}
			if !b.Objects.Contains(uint64(pr.O)) {
				t.Fatalf("%v: object filter false negative for %d", key, pr.O)
			}
		}
	}
}
