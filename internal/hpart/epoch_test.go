package hpart

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"ping/internal/dfs"
	"ping/internal/rdf"
)

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readAll snapshots every sub-partition's rows of a layout.
func readAll(t *testing.T, lay *Layout) map[SubPartKey][]Pair {
	t.Helper()
	out := make(map[SubPartKey][]Pair)
	for _, key := range lay.SubPartitions() {
		pairs, err := lay.ReadSubPartition(key)
		if err != nil {
			t.Fatalf("read %v: %v", key, err)
		}
		out[key] = pairs
	}
	return out
}

// TestStoreSnapshotIsolation is the tentpole's core property: a pinned
// snapshot keeps returning exactly its epoch's rows while a maintainer
// publishes a new epoch, and the new epoch equals a from-scratch
// partition of the updated graph.
func TestStoreSnapshotIsolation(t *testing.T) {
	g := randomGraph(11, 60, 5)
	lay := rebuild(t, g)
	store := NewStore(lay)
	m, err := NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}

	pinned, release := store.Pin()
	defer release()
	before := readAll(t, pinned)

	// The batch both moves existing subjects (CS change) and adds a new
	// one, so several sub-partitions are rewritten.
	add := []rdf.Triple{
		{S: g.Dict.EncodeIRI("http://x/s0"), P: g.Dict.EncodeIRI("http://x/extra"), O: g.Dict.EncodeIRI("http://x/o0")},
		{S: g.Dict.EncodeIRI("http://x/brand-new"), P: g.Dict.EncodeIRI("http://x/p0"), O: g.Dict.EncodeIRI("http://x/o1")},
	}
	tr := g.Triples[0]
	remove := []rdf.Triple{tr}
	if err := m.Apply(add, remove); err != nil {
		t.Fatal(err)
	}

	if got := store.Epoch(); got != 1 {
		t.Fatalf("store epoch = %d, want 1", got)
	}
	if pinned.Epoch() != 0 {
		t.Fatalf("pinned snapshot epoch = %d, want 0", pinned.Epoch())
	}

	// The pinned snapshot is bit-for-bit unchanged: same inventory, same
	// rows, readable from storage even though the new epoch superseded
	// some of its files.
	after := readAll(t, pinned)
	if len(after) != len(before) {
		t.Fatalf("pinned inventory changed: %d keys, had %d", len(after), len(before))
	}
	for key, want := range before {
		if !pairsEqual(after[key], want) {
			t.Fatalf("pinned snapshot rows changed for %v", key)
		}
	}

	// The published epoch equals a from-scratch partition of the updated
	// graph.
	g2 := &rdf.Graph{Dict: g.Dict}
	for _, x := range g.Triples {
		if x != tr {
			g2.AddID(x)
		}
	}
	for _, x := range add {
		g2.AddID(x)
	}
	g2.Dedup()
	layoutsEquivalent(t, store.Current(), rebuild(t, g2), "published epoch")
}

// TestEpochGCWaitsForPins verifies the GC contract: generation files
// retired by a publish survive exactly as long as some query pins an
// epoch that can read them.
func TestEpochGCWaitsForPins(t *testing.T) {
	g := randomGraph(7, 50, 4)
	lay := rebuild(t, g)
	store := NewStore(lay)
	m, err := NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}

	pinned, release := store.Pin()
	oldPaths := make(map[SubPartKey]string)
	for _, key := range pinned.SubPartitions() {
		oldPaths[key] = pinned.subPartFile(key)
	}

	add := []rdf.Triple{{
		S: g.Dict.EncodeIRI("http://x/s0"),
		P: g.Dict.EncodeIRI("http://x/extra"),
		O: g.Dict.EncodeIRI("http://x/o0"),
	}}
	if err := m.Apply(add, nil); err != nil {
		t.Fatal(err)
	}

	cur := store.Current()
	var rewritten []SubPartKey
	for key, path := range oldPaths {
		if !cur.HasSubPartition(key) || cur.subPartFile(key) != path {
			rewritten = append(rewritten, key)
		}
	}
	if len(rewritten) == 0 {
		t.Fatal("update rewrote no sub-partitions; test is vacuous")
	}

	st := store.Stats()
	if st.RetiredFiles == 0 || st.FilesRemoved != 0 {
		t.Fatalf("with a pin: stats %+v, want retired files and no removals", st)
	}
	for _, key := range rewritten {
		if !lay.FS().Exists(oldPaths[key]) {
			t.Fatalf("retired file %s deleted while epoch 0 still pinned", oldPaths[key])
		}
		// And the pinned snapshot still reads it.
		if _, err := pinned.ReadSubPartition(key); err != nil {
			t.Fatalf("pinned read of %v failed: %v", key, err)
		}
	}

	// A second pin of the *current* epoch must not keep the retired
	// files alive once the old pin goes away.
	_, release1 := store.Pin()
	release()

	st = store.Stats()
	if st.RetiredFiles != 0 || st.FilesRemoved == 0 {
		t.Fatalf("after last epoch-0 pin released: stats %+v, want all retired files removed", st)
	}
	for _, key := range rewritten {
		if lay.FS().Exists(oldPaths[key]) {
			t.Fatalf("retired file %s survived GC", oldPaths[key])
		}
	}
	release1()

	// release is idempotent: a double release must not corrupt pin
	// accounting.
	release()
	if st := store.Stats(); st.PinnedQueries != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
}

// TestStoreRandomizedEquivalence mirrors the maintainer property test in
// snapshot mode: every published epoch must equal a from-scratch
// partition of the updated graph, and a Load from the same storage must
// reconstruct it (generation-suffixed paths included).
func TestStoreRandomizedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 80, 5)
		lay := rebuild(t, g)
		store := NewStore(lay)
		m, err := NewStoreMaintainer(store)
		if err != nil {
			t.Fatal(err)
		}

		current := make(map[rdf.Triple]bool, g.Len())
		for _, tr := range g.Triples {
			current[tr] = true
		}

		for batch := 0; batch < 4; batch++ {
			var add, remove []rdf.Triple
			for tr := range current {
				if rng.Float64() < 0.08 {
					remove = append(remove, tr)
				}
				if len(remove) >= 10 {
					break
				}
			}
			for i := 0; i < 12; i++ {
				s := g.Dict.EncodeIRI(fmt.Sprintf("http://x/s%d", rng.Intn(100)))
				p := g.Dict.EncodeIRI(fmt.Sprintf("http://x/p%d", rng.Intn(7)))
				o := g.Dict.EncodeIRI(fmt.Sprintf("http://x/o%d", rng.Intn(60)))
				add = append(add, rdf.Triple{S: s, P: p, O: o})
			}
			if err := m.Apply(add, remove); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			if got := store.Epoch(); got != uint64(batch+1) {
				t.Fatalf("seed %d batch %d: epoch %d", seed, batch, got)
			}
			for _, tr := range remove {
				delete(current, tr)
			}
			for _, tr := range add {
				current[tr] = true
			}

			g2 := &rdf.Graph{Dict: g.Dict}
			for tr := range current {
				g2.AddID(tr)
			}
			g2.Dedup()
			label := fmt.Sprintf("seed %d batch %d", seed, batch)
			layoutsEquivalent(t, store.Current(), rebuild(t, g2), label)

			// Persistence round-trip: meta column 7 carries generations,
			// so the loaded layout reads the same generation files.
			loaded, err := Load(lay.FS(), g.Dict)
			if err != nil {
				t.Fatalf("%s: load: %v", label, err)
			}
			layoutsEquivalent(t, loaded, store.Current(), label+" loaded")
		}
		// Nothing pinned: the GC must have drained every retired file.
		if st := store.Stats(); st.RetiredFiles != 0 {
			t.Fatalf("seed %d: %d retired files leaked", seed, st.RetiredFiles)
		}
	}
}

// TestGenerationsNeverRegress: deleting a sub-partition and re-creating
// it later must produce a generation (and file path) never used before,
// so a pinned epoch reading the old generation cannot collide with it.
func TestGenerationsNeverRegress(t *testing.T) {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	g.Add(iri("a"), iri("p"), iri("x"))
	g.Add(iri("b"), iri("p"), iri("y"))
	g.Add(iri("b"), iri("q"), iri("y"))
	g.Dedup()
	lay := rebuild(t, g)
	store := NewStore(lay)
	m, err := NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}

	a := g.Dict.LookupIRI("a")
	p := g.Dict.LookupIRI("p")
	q := g.Dict.LookupIRI("q")
	x := g.Dict.LookupIRI("x")

	seen := make(map[string]bool)
	record := func() {
		for _, key := range store.Current().SubPartitions() {
			seen[store.Current().subPartFile(key)] = true
		}
	}
	record()

	// Remove a's only triple (its sub-partition may vanish), then re-add
	// it, twice over, verifying each re-created file is a fresh path.
	for i := 0; i < 2; i++ {
		if err := m.Apply(nil, []rdf.Triple{{S: a, P: p, O: x}}); err != nil {
			t.Fatal(err)
		}
		if err := m.Apply([]rdf.Triple{{S: a, P: p, O: x}}, nil); err != nil {
			t.Fatal(err)
		}
		cur := store.Current()
		for _, key := range cur.SubPartitions() {
			if key.Prop != p && key.Prop != q {
				continue
			}
			path := cur.subPartFile(key)
			if seen[path] {
				t.Fatalf("round %d: generation path %s reused", i, path)
			}
			seen[path] = true
		}
	}
}

// failingPuts is a dfs block store whose writes fail while fail is set.
type failingPuts struct {
	dfs.BlockStore
	fail *atomic.Bool
}

func (f failingPuts) Put(node int, id uint64, data []byte) error {
	if f.fail.Load() {
		return errors.New("injected write fault")
	}
	return f.BlockStore.Put(node, id, data)
}

// TestPinnedEpochSurvivesRebuiltMaintainer: the store, not the
// maintainer, numbers generations. A pinned epoch reads a
// sub-partition's file; a later batch deletes that sub-partition; a
// batch fails on a dfs write fault and the maintainer is rebuilt, as
// pingd does; the rebuilt maintainer re-creates the sub-partition and
// rewrites it over several batches. No new file may land on a path a
// live epoch reads, and every live epoch's cached reads must equal a
// fresh partition of that epoch's graph.
func TestPinnedEpochSurvivesRebuiltMaintainer(t *testing.T) {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	// CS {p} and CS {q} sit on level 1, CS {p, q} on level 2. L1[p]
	// holds a's row alone, so removing a deletes it without reshaping
	// the hierarchy.
	g.Add(iri("a"), iri("p"), iri("x"))
	g.Add(iri("b"), iri("p"), iri("y"))
	g.Add(iri("b"), iri("q"), iri("y"))
	g.Add(iri("d"), iri("q"), iri("w"))
	g.Dedup()
	fs := dfs.New(dfs.Config{})
	var fail atomic.Bool
	fs.WrapStore(func(inner dfs.BlockStore) dfs.BlockStore { return failingPuts{inner, &fail} })
	lay, err := Partition(g, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	lay.EnableSubPartCache(0)
	store := NewStore(lay)
	m, err := NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Dict.LookupIRI("p")
	key := SubPartKey{Level: 1, Prop: p}
	if !lay.HasSubPartition(key) {
		t.Fatalf("no sub-partition %v", key)
	}

	current := make(map[rdf.Triple]bool)
	for _, tr := range g.Triples {
		current[tr] = true
	}
	graphOf := func() *rdf.Graph {
		out := &rdf.Graph{Dict: g.Dict}
		for tr := range current {
			out.AddID(tr)
		}
		out.Dedup()
		return out
	}
	triple := func(s, o string) rdf.Triple {
		return rdf.Triple{S: g.Dict.EncodeIRI(s), P: p, O: g.Dict.EncodeIRI(o)}
	}
	apply := func(add, remove []rdf.Triple) {
		t.Helper()
		if err := m.Apply(add, remove); err != nil {
			t.Fatal(err)
		}
		for _, tr := range remove {
			delete(current, tr)
		}
		for _, tr := range add {
			current[tr] = true
		}
	}
	// matches checks an epoch's storage and cached reads against a
	// fresh partition.
	matches := func(epoch *Layout, want *Layout, label string) {
		t.Helper()
		if len(epoch.SubPartRows) != len(want.SubPartRows) {
			t.Fatalf("%s: %d sub-partitions, want %d", label, len(epoch.SubPartRows), len(want.SubPartRows))
		}
		for _, k := range want.SubPartitions() {
			wantRows, err := want.ReadSubPartition(k)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := epoch.ReadSubPartition(k)
			if err != nil {
				t.Fatalf("%s: %v: %v", label, k, err)
			}
			if !pairsEqual(stored, wantRows) {
				t.Fatalf("%s: stored %v = %v, want %v", label, k, stored, wantRows)
			}
			block, _, err := epoch.ReadSubPartitionCached(context.Background(), k)
			if err != nil {
				t.Fatalf("%s: %v: %v", label, k, err)
			}
			if got := block.Materialize(); !pairsEqual(got, wantRows) {
				t.Fatalf("%s: cached %v = %v, want %v", label, k, got, wantRows)
			}
		}
	}

	// Epoch 1 rewrites L1[p] once; pin it and warm the cache.
	apply([]rdf.Triple{triple("c", "z")}, nil)
	pinned, release := store.Pin()
	defer release()
	pinnedWant := rebuild(t, graphOf())
	matches(pinned, pinnedWant, "pinned epoch")

	// Epoch 2 deletes L1[p]; its file stays, retired, for the pin.
	apply(nil, []rdf.Triple{triple("a", "x"), triple("c", "z")})
	if store.Current().HasSubPartition(key) {
		t.Fatalf("%v survived the removal of all its rows", key)
	}

	// A batch that would re-create L1[p] fails on a write fault; the
	// maintainer is rebuilt from the store.
	fail.Store(true)
	if err := m.Apply([]rdf.Triple{triple("e", "v")}, nil); err == nil {
		t.Fatal("batch succeeded despite the write fault")
	}
	fail.Store(false)
	if m, err = NewStoreMaintainer(store); err != nil {
		t.Fatal(err)
	}

	// The rebuilt maintainer re-creates L1[p] and rewrites it.
	for i, s := range []string{"e", "f", "h"} {
		apply([]rdf.Triple{triple(s, "o"+s)}, nil)
		label := fmt.Sprintf("rewrite %d", i)
		matches(pinned, pinnedWant, label+": pinned epoch")
		matches(store.Current(), rebuild(t, graphOf()), label+": current epoch")
	}
}

// TestCloneIsolation: mutating a clone's maps must not leak into the
// original (the maintainer relies on this for copy-on-write batches).
func TestCloneIsolation(t *testing.T) {
	g := randomGraph(3, 30, 3)
	lay := rebuild(t, g)
	cp := lay.Clone()

	var someKey SubPartKey
	for key := range lay.SubPartRows {
		someKey = key
		break
	}
	cp.SubPartRows[someKey] = 999999
	cp.gen[someKey] = 42
	cp.SI[12345] = 7

	if lay.SubPartRows[someKey] == 999999 {
		t.Error("SubPartRows shared between clone and original")
	}
	if lay.gen[someKey] == 42 {
		t.Error("gen shared between clone and original")
	}
	if lay.SI[12345] == 7 {
		t.Error("SI shared between clone and original")
	}
	if cp.Dict != lay.Dict {
		t.Error("Dict must be shared")
	}
	if cp.subPartCache() != lay.subPartCache() {
		t.Error("decoded cache must be shared (entries are generation-keyed)")
	}
}
