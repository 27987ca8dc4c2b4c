package ping

import (
	"fmt"
	"testing"

	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// bloomLayout partitions with per-sub-partition filters enabled.
func bloomLayout(t *testing.T, g *rdf.Graph) *hpart.Layout {
	t.Helper()
	lay, err := hpart.Partition(g, hpart.Options{BuildBlooms: true})
	if err != nil {
		t.Fatal(err)
	}
	if !lay.HasBlooms() {
		t.Fatal("blooms not built")
	}
	return lay
}

// TestBloomPruningRefinesOI crafts the case where OI alone cannot prune:
// an object occurs on a level, but only under a *different* property than
// the pattern's. The Bloom filter of the specific sub-partition rules the
// level out.
func TestBloomPruningRefinesOI(t *testing.T) {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	// Level 1: subject a has {p}; target appears as object of p at L1.
	g.Add(iri("a"), iri("p"), iri("target"))
	// Level 2: subject b has {p, q}; target appears at L2 ONLY under q.
	g.Add(iri("b"), iri("p"), iri("other"))
	g.Add(iri("b"), iri("q"), iri("target"))
	g.Dedup()
	lay := bloomLayout(t, g)
	if lay.NumLevels != 2 {
		t.Fatalf("levels = %d", lay.NumLevels)
	}

	pat := sparql.TriplePattern{S: rdf.NewVar("x"), P: iri("p"), O: iri("target")}
	// Without blooms: OI[target] = {1,2}, VP[p] = {1,2} → both levels.
	plain := NewProcessor(lay, Options{})
	if got := plain.PatternSlices(pat); len(got) != 2 {
		t.Fatalf("without blooms: %d candidates, want 2", len(got))
	}
	// With blooms: L2[p]'s object filter does not contain target.
	pruned := NewProcessor(lay, Options{UseBloomPruning: true})
	got := pruned.PatternSlices(pat)
	if len(got) != 1 || got[0].Level != 1 {
		t.Fatalf("with blooms: %v, want only L1[p]", got)
	}
}

func TestBloomPruningPreservesAnswers(t *testing.T) {
	for seed := int64(30); seed < 34; seed++ {
		g := nestedGraph(seed, 60, 5)
		lay := bloomLayout(t, g)
		plain := NewProcessor(lay, Options{})
		pruned := NewProcessor(lay, Options{UseBloomPruning: true})
		queries := append([]string(nil), testQueries...)
		queries = append(queries,
			`SELECT * WHERE { ?x <p0> <s7> . ?x <p1> ?y }`,
			`SELECT * WHERE { <s5> <p0> ?y . ?y <p0> ?z }`,
		)
		for _, qs := range queries {
			q := sparql.MustParse(qs)
			oracle := answerSet(engine.Naive(g, q).Distinct())

			relPruned, statsPruned, err := pruned.EQA(q)
			if err != nil {
				t.Fatal(err)
			}
			got := answerSet(relPruned)
			if len(got) != len(oracle) || !subset(got, oracle) {
				t.Fatalf("seed %d %q: bloom pruning changed answers (%d vs %d)",
					seed, qs, len(got), len(oracle))
			}
			_, statsPlain, err := plain.EQA(q)
			if err != nil {
				t.Fatal(err)
			}
			if statsPruned.InputRows > statsPlain.InputRows {
				t.Errorf("seed %d %q: pruning increased data access (%d > %d)",
					seed, qs, statsPruned.InputRows, statsPlain.InputRows)
			}
		}
	}
}

func TestBloomPruningInactiveWithoutFilters(t *testing.T) {
	g := fig1Graph()
	lay := mustPartition(t, g) // no blooms
	proc := NewProcessor(lay, Options{UseBloomPruning: true})
	q := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?b . ?x <hasKeyword> ?d }`)
	res, err := proc.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Card() != 3 {
		t.Errorf("answers = %d, want 3", res.Final.Card())
	}
}

func TestBloomsSurviveMaintenance(t *testing.T) {
	g := nestedGraph(77, 50, 4)
	lay := bloomLayout(t, g)
	m, err := hpart.NewStoreMaintainer(hpart.NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	// Move a subject by giving it a new property; the rewritten files'
	// filters must reflect the move.
	s := g.Dict.LookupIRI("s0")
	pNew := g.Dict.EncodeIRI("pNew")
	o := g.Dict.EncodeIRI("oNew")
	if err := m.AddTriples([]rdf.Triple{{S: s, P: pNew, O: o}}); err != nil {
		t.Fatal(err)
	}
	lay = m.Layout()
	newLevel := lay.SI[s]
	key := hpart.SubPartKey{Level: newLevel, Prop: pNew}
	b := lay.Blooms(key)
	if b == nil {
		t.Fatalf("no blooms for new sub-partition %v", key)
	}
	if !b.Subjects.Contains(uint64(s)) || !b.Objects.Contains(uint64(o)) {
		t.Error("rebuilt filter missing the moved subject's row")
	}
	// Queries with the new constant must find the answer under pruning.
	proc := NewProcessor(lay, Options{UseBloomPruning: true})
	q := sparql.MustParse(fmt.Sprintf(`SELECT * WHERE { ?x <pNew> <oNew> }`))
	rel, _, err := proc.EQA(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Card() != 1 {
		t.Errorf("answers = %d, want 1", rel.Card())
	}
}

func TestBloomsPersistAndReload(t *testing.T) {
	g := nestedGraph(88, 40, 4)
	lay := bloomLayout(t, g)
	if err := lay.SaveDict(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := hpart.Load(lay.FS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reloaded.HasBlooms() {
		t.Fatal("blooms not reloaded from storage")
	}
	proc := NewProcessor(reloaded, Options{UseBloomPruning: true})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)
	want := engine.Naive(g, q).Distinct()
	rel, _, err := proc.EQA(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Card() != want.Card() {
		t.Errorf("reloaded bloom-pruned EQA: %d answers, oracle %d", rel.Card(), want.Card())
	}
}
