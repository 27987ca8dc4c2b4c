package hpart

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"ping/internal/rdf"
)

// layoutsEquivalent checks that two layouts describe the same partitioned
// dataset: same levels, same per-sub-partition row sets, same indexes.
func layoutsEquivalent(t *testing.T, got, want *Layout, label string) {
	t.Helper()
	if got.NumLevels != want.NumLevels {
		t.Fatalf("%s: NumLevels %d != %d", label, got.NumLevels, want.NumLevels)
	}
	if len(got.SubPartRows) != len(want.SubPartRows) {
		t.Fatalf("%s: %d sub-partitions, want %d", label, len(got.SubPartRows), len(want.SubPartRows))
	}
	for key, rows := range want.SubPartRows {
		if got.SubPartRows[key] != rows {
			t.Fatalf("%s: SubPartRows[%v] = %d, want %d", label, key, got.SubPartRows[key], rows)
		}
		gp, err := got.ReadSubPartition(key)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		wp, err := want.ReadSubPartition(key)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		gset := make(map[Pair]bool, len(gp))
		for _, pr := range gp {
			gset[pr] = true
		}
		for _, pr := range wp {
			if !gset[pr] {
				t.Fatalf("%s: %v missing row %v", label, key, pr)
			}
		}
	}
	if len(got.SI) != len(want.SI) {
		t.Fatalf("%s: SI size %d != %d", label, len(got.SI), len(want.SI))
	}
	for s, l := range want.SI {
		if got.SI[s] != l {
			t.Fatalf("%s: SI[%d] = %d, want %d", label, s, got.SI[s], l)
		}
	}
	if len(got.VP) != len(want.VP) {
		t.Fatalf("%s: VP size %d != %d", label, len(got.VP), len(want.VP))
	}
	for p, set := range want.VP {
		if got.VP[p] != set {
			t.Fatalf("%s: VP[%d] = %v, want %v", label, p, got.VP[p], set)
		}
	}
	if len(got.OI) != len(want.OI) {
		t.Fatalf("%s: OI size %d != %d", label, len(got.OI), len(want.OI))
	}
	for o, set := range want.OI {
		if got.OI[o] != set {
			t.Fatalf("%s: OI[%d] = %v, want %v", label, o, got.OI[o], set)
		}
	}
	for i := range want.LevelTriples {
		if got.LevelTriples[i] != want.LevelTriples[i] {
			t.Fatalf("%s: LevelTriples[%d] = %d, want %d",
				label, i, got.LevelTriples[i], want.LevelTriples[i])
		}
	}
}

// rebuild partitions the graph from scratch sharing the same dictionary.
func rebuild(t *testing.T, g *rdf.Graph) *Layout {
	t.Helper()
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func TestMaintainerAddDeepensHierarchy(t *testing.T) {
	// The paper's hard case: an addition creates a CS that deepens the
	// levels of existing CSs.
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	g.Add(iri("a"), iri("p1"), iri("x"))
	g.Add(iri("a"), iri("p2"), iri("x"))
	g.Add(iri("b"), iri("p1"), iri("y"))
	g.Add(iri("b"), iri("p2"), iri("y"))
	g.Add(iri("b"), iri("p3"), iri("y"))
	g.Dedup()
	lay := rebuild(t, g)
	if lay.NumLevels != 2 {
		t.Fatalf("base levels = %d, want 2", lay.NumLevels)
	}

	m, err := NewStoreMaintainer(NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	// New subject c with CS {p1} ⊂ CS(a) ⊂ CS(b): levels deepen to 3.
	c := g.Dict.EncodeIRI("c")
	p1 := g.Dict.LookupIRI("p1")
	z := g.Dict.EncodeIRI("z")
	if err := m.AddTriples([]rdf.Triple{{S: c, P: p1, O: z}}); err != nil {
		t.Fatal(err)
	}
	if m.Layout().NumLevels != 3 {
		t.Fatalf("after add: levels = %d, want 3", m.Layout().NumLevels)
	}
	// a moved from level 1 to 2, b from 2 to 3, c sits at 1.
	if m.Layout().SI[g.Dict.LookupIRI("a")] != 2 {
		t.Errorf("SI[a] = %d, want 2", m.Layout().SI[g.Dict.LookupIRI("a")])
	}
	if m.Layout().SI[g.Dict.LookupIRI("b")] != 3 {
		t.Errorf("SI[b] = %d, want 3", m.Layout().SI[g.Dict.LookupIRI("b")])
	}
	if m.Layout().SI[c] != 1 {
		t.Errorf("SI[c] = %d, want 1", m.Layout().SI[c])
	}

	// Full equivalence with a from-scratch rebuild.
	g.AddID(rdf.Triple{S: c, P: p1, O: z})
	g.Dedup()
	layoutsEquivalent(t, m.Layout(), rebuild(t, g), "deepen")
}

func TestMaintainerRemoveFlattensHierarchy(t *testing.T) {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	g.Add(iri("a"), iri("p1"), iri("x"))
	g.Add(iri("b"), iri("p1"), iri("y"))
	g.Add(iri("b"), iri("p2"), iri("y"))
	g.Dedup()
	lay := rebuild(t, g)
	if lay.NumLevels != 2 {
		t.Fatalf("base levels = %d", lay.NumLevels)
	}
	m, err := NewStoreMaintainer(NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	// Removing a's only triple removes CS {p1}; b's CS no longer has a
	// subset below it, so the hierarchy flattens to one level.
	a := g.Dict.LookupIRI("a")
	p1 := g.Dict.LookupIRI("p1")
	x := g.Dict.LookupIRI("x")
	if err := m.RemoveTriples([]rdf.Triple{{S: a, P: p1, O: x}}); err != nil {
		t.Fatal(err)
	}
	if m.Layout().NumLevels != 1 {
		t.Fatalf("after remove: levels = %d, want 1", m.Layout().NumLevels)
	}
	if _, ok := m.Layout().SI[a]; ok {
		t.Error("vanished subject still indexed in SI")
	}

	g2 := rdf.NewGraph()
	g2.Dict = g.Dict
	g2.AddID(rdf.Triple{S: g.Dict.LookupIRI("b"), P: p1, O: g.Dict.LookupIRI("y")})
	g2.AddID(rdf.Triple{S: g.Dict.LookupIRI("b"), P: g.Dict.LookupIRI("p2"), O: g.Dict.LookupIRI("y")})
	g2.Dedup()
	layoutsEquivalent(t, m.Layout(), rebuild(t, g2), "flatten")
}

// TestMaintainerRandomizedEquivalence: random add/remove batches, with
// advisor level merges (Restructure) between some of them and batches
// that deepen the hierarchy after a merge, must leave the same layout as
// partitioning the updated graph from scratch and applying the same level
// remap. A data batch scans every subject for level shifts only when a
// CS's physical level changed, so a skipped scan after a merge or a
// deepening would leave subjects on stale levels and fail here.
func TestMaintainerRandomizedEquivalence(t *testing.T) {
	deepenedAfterMerge := 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 80, 5)
		lay := rebuild(t, g)
		m, err := NewStoreMaintainer(NewStore(lay))
		if err != nil {
			t.Fatal(err)
		}

		current := make(map[rdf.Triple]bool, g.Len())
		for _, tr := range g.Triples {
			current[tr] = true
		}

		merged := false
		for batch := 0; batch < 7; batch++ {
			if batch == 2 || batch == 5 {
				// An advisor merge of the deepest level into the one above.
				if n := m.Layout().NumLevels; n >= 2 {
					if err := m.Restructure([]LevelMerge{{From: n, Into: n - 1}}, nil); err != nil {
						t.Fatalf("seed %d batch %d: merge: %v", seed, batch, err)
					}
					merged = true
				}
			}
			var add, remove []rdf.Triple
			// Removals: sample existing triples.
			for tr := range current {
				if rng.Float64() < 0.08 {
					remove = append(remove, tr)
				}
				if len(remove) >= 10 {
					break
				}
			}
			// Additions: a mix of new subjects, new properties on
			// existing subjects, and re-additions.
			for i := 0; i < 12; i++ {
				s := g.Dict.EncodeIRI(fmt.Sprintf("http://x/s%d", rng.Intn(100)))
				p := g.Dict.EncodeIRI(fmt.Sprintf("http://x/p%d", rng.Intn(7)))
				o := g.Dict.EncodeIRI(fmt.Sprintf("http://x/o%d", rng.Intn(60)))
				add = append(add, rdf.Triple{S: s, P: p, O: o})
			}
			if batch%3 == 0 {
				add = append(add, deepeningSubject(m.Layout(), fmt.Sprintf("%d-%d", seed, batch))...)
			}
			before := m.Layout().NumLevels
			if err := m.Apply(add, remove); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			if merged && m.Layout().NumLevels > before {
				deepenedAfterMerge++
			}
			for _, tr := range remove {
				delete(current, tr)
			}
			for _, tr := range add {
				current[tr] = true
			}

			// Rebuild from scratch on the updated triple set, with the
			// maintained level remap.
			g2 := &rdf.Graph{Dict: g.Dict}
			for tr := range current {
				g2.AddID(tr)
			}
			g2.Dedup()
			layoutsEquivalent(t, m.Layout(), rebuildMerged(t, g2, m.Layout().LevelMap),
				fmt.Sprintf("seed %d batch %d", seed, batch))
		}
	}
	if deepenedAfterMerge == 0 {
		t.Fatal("no batch deepened the hierarchy after a merge")
	}
}

// deepeningSubject returns the triples of a new subject whose CS is a
// deepest CS plus one new property, which puts it one level below every
// existing CS.
func deepeningSubject(lay *Layout, tag string) []rdf.Triple {
	h := lay.Hierarchy
	deepest := h.Sets[h.SetsAtLevel(h.MaxLevel())[0]]
	s := lay.Dict.EncodeIRI("http://x/deep" + tag)
	o := lay.Dict.EncodeIRI("http://x/o0")
	out := []rdf.Triple{{S: s, P: lay.Dict.EncodeIRI("http://x/pdeep" + tag), O: o}}
	for _, p := range deepest.Props() {
		out = append(out, rdf.Triple{S: s, P: p, O: o})
	}
	return out
}

// rebuildMerged partitions g from scratch and applies the level remap
// lm as advisor merges, one per remapped level in ascending order: a
// merge never targets a level a later one moves, so this reproduces lm
// exactly, unchained.
func rebuildMerged(t *testing.T, g *rdf.Graph, lm map[int]int) *Layout {
	t.Helper()
	m, err := NewStoreMaintainer(NewStore(rebuild(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	for _, logical := range sortedKeys(lm) {
		if err := m.Restructure([]LevelMerge{{From: logical, Into: lm[logical]}}, nil); err != nil {
			t.Fatalf("oracle merge %d->%d: %v", logical, lm[logical], err)
		}
	}
	if got := m.Layout().LevelMap; !maps.Equal(got, lm) {
		t.Fatalf("oracle level map %v, want %v", got, lm)
	}
	return m.Layout()
}

func TestMaintainerNoOp(t *testing.T) {
	g := randomGraph(3, 40, 4)
	lay := rebuild(t, g)
	m, err := NewStoreMaintainer(NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	before := len(lay.SubPartRows)
	if err := m.Apply(nil, nil); err != nil {
		t.Fatal(err)
	}
	// Removing an absent triple and re-adding an existing one are no-ops.
	tr := g.Triples[0]
	ghost := rdf.Triple{S: tr.S, P: tr.P, O: g.Dict.EncodeIRI("http://x/ghost")}
	if err := m.Apply([]rdf.Triple{tr}, []rdf.Triple{ghost}); err != nil {
		t.Fatal(err)
	}
	layoutsEquivalent(t, m.Layout(), rebuild(t, g), "noop")
	if len(m.Layout().SubPartRows) != before {
		t.Error("no-op batch changed the inventory")
	}
}

func TestMaintainerPersistedIndexes(t *testing.T) {
	// After maintenance, reloading the layout from storage must see the
	// updated indexes (apply() rewrites them).
	g := randomGraph(5, 50, 4)
	lay := rebuild(t, g)
	if err := lay.SaveDict(); err != nil {
		t.Fatal(err)
	}
	m, err := NewStoreMaintainer(NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	s := g.Dict.EncodeIRI("http://x/brand-new")
	p := g.Dict.EncodeIRI("http://x/p0")
	o := g.Dict.EncodeIRI("http://x/o0")
	if err := m.AddTriples([]rdf.Triple{{S: s, P: p, O: o}}); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(lay.FS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.SI[s] != m.Layout().SI[s] {
		t.Errorf("persisted SI[%d] = %d, want %d", s, reloaded.SI[s], m.Layout().SI[s])
	}
	if reloaded.NumLevels != m.Layout().NumLevels {
		t.Errorf("persisted NumLevels = %d, want %d", reloaded.NumLevels, m.Layout().NumLevels)
	}
}
