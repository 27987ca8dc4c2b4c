package gmark

import (
	"strings"
	"testing"

	"ping/internal/hpart"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// partition is a test helper running Algorithm 1 on a generated dataset.
func partition(t *testing.T, d *Dataset) *hpart.Layout {
	t.Helper()
	lay, err := hpart.Partition(d.Graph, hpart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// TestSchemaLevelCounts verifies that every standard dataset reproduces
// its published CS-hierarchy depth (Fig. 5): Uniprot 5, Shop 6, Social 11,
// LUBM 2, YAGO 15, DBpedia 17.
func TestSchemaLevelCounts(t *testing.T) {
	for _, nd := range StandardDatasets() {
		if nd.Name == "shop100" {
			continue // same schema as shop, 8× the size
		}
		d := nd.Schema.Generate(nd.Scale, 1)
		lay := partition(t, d)
		if lay.NumLevels != nd.Levels {
			t.Errorf("%s: %d levels, want %d", nd.Name, lay.NumLevels, nd.Levels)
		}
		if got := lay.TotalTriples(); got < 10_000 {
			t.Errorf("%s: only %d triples generated", nd.Name, got)
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a := Uniprot().Generate(0.2, 7)
	b := Uniprot().Generate(0.2, 7)
	if a.Graph.Len() != b.Graph.Len() {
		t.Fatalf("non-deterministic sizes: %d vs %d", a.Graph.Len(), b.Graph.Len())
	}
	for i := range a.Graph.Triples {
		ta, tb := a.Graph.Triples[i], b.Graph.Triples[i]
		if a.Graph.Dict.TermString(ta.S) != b.Graph.Dict.TermString(tb.S) ||
			a.Graph.Dict.TermString(ta.P) != b.Graph.Dict.TermString(tb.P) ||
			a.Graph.Dict.TermString(ta.O) != b.Graph.Dict.TermString(tb.O) {
			t.Fatalf("triple %d differs between equal-seed runs", i)
		}
	}
	c := Uniprot().Generate(0.2, 8)
	if c.Graph.Len() == a.Graph.Len() {
		// Same length is possible but full equality is not expected;
		// compare a few triples.
		same := true
		for i := 0; i < 50 && i < a.Graph.Len(); i++ {
			if a.Graph.Dict.TermString(a.Graph.Triples[i].O) != c.Graph.Dict.TermString(c.Graph.Triples[i].O) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

// TestTable2SymbolLevels verifies the DBpedia schema reproduces the Q55
// symbol-level structure of Table 2: rdf:type on all 17 levels,
// foundationPlace on 2-13, developer on 2-11, and California present as
// an object from level 2 deep into the hierarchy.
func TestTable2SymbolLevels(t *testing.T) {
	s := DBpedia()
	d := s.Generate(1, 3)
	lay := partition(t, d)
	if lay.NumLevels != 17 {
		t.Fatalf("DBpedia levels = %d, want 17", lay.NumLevels)
	}
	dict := d.Graph.Dict

	typeLevels := lay.PropertyLevels(dict.LookupIRI(rdf.RDFType))
	if typeLevels.Min() != 1 || typeLevels.Max() != 17 || typeLevels.Count() != 17 {
		t.Errorf("VP[rdf:type] = %v, want {1-17}", typeLevels)
	}
	fp := lay.PropertyLevels(dict.LookupIRI(s.PropertyIRI("foundationPlace")))
	if fp.Min() != 2 || fp.Max() != 13 {
		t.Errorf("VP[foundationPlace] = %v, want {2-13}", fp)
	}
	dev := lay.PropertyLevels(dict.LookupIRI(s.PropertyIRI("developer")))
	if dev.Min() != 2 || dev.Max() != 11 {
		t.Errorf("VP[developer] = %v, want {2-11}", dev)
	}
	cal := lay.ObjectLevels(dict.LookupIRI(s.PropertyIRI("California")))
	if cal.Min() != 2 || cal.Max() < 15 {
		t.Errorf("OI[California] = %v, want min 2 and deep max", cal)
	}
}

func TestQ55HasAnswers(t *testing.T) {
	s := DBpedia()
	d := s.Generate(1, 3)
	q := sparql.MustParse(`SELECT * WHERE {
		?company a ?company_type .
		?company <` + s.PropertyIRI("foundationPlace") + `> <` + s.PropertyIRI("California") + `> .
		?product <` + s.PropertyIRI("developer") + `> ?company .
		?product a ?product_type . }`)
	g := newQueryGen(d, 1)
	if !g.hasAnswers(q) {
		t.Error("Q55 has no answers on the generated DBpedia graph")
	}
}

func TestGenerateWorkloadShapesAndSizes(t *testing.T) {
	d := Shop().Generate(0.3, 5)
	cfg := StandardWorkloadConfig("shop", 5)
	w := d.GenerateWorkload(cfg, 11)
	if len(w.Star) != 5 || len(w.Chain) != 5 || len(w.Complex) != 5 {
		t.Fatalf("bucket sizes: %d/%d/%d", len(w.Star), len(w.Chain), len(w.Complex))
	}
	for _, q := range w.Star {
		if got := sparql.Classify(q); got != sparql.ShapeStar {
			t.Errorf("star bucket query classified %v:\n%s", got, q)
		}
		if n := len(q.Patterns); n < cfg.StarMin || n > cfg.StarMax {
			t.Errorf("star query has %d patterns, want %d-%d", n, cfg.StarMin, cfg.StarMax)
		}
	}
	for _, q := range w.Chain {
		if n := len(q.Patterns); n < cfg.ChainMin || n > cfg.ChainMax {
			t.Errorf("chain query has %d patterns, want %d-%d", n, cfg.ChainMin, cfg.ChainMax)
		}
		if len(q.Patterns) >= 2 {
			if got := sparql.Classify(q); got != sparql.ShapeChain {
				t.Errorf("chain bucket query classified %v:\n%s", got, q)
			}
		}
	}
	for _, q := range w.Complex {
		if n := len(q.Patterns); n < cfg.ComplexMin || n > cfg.ComplexMax {
			t.Errorf("complex query has %d patterns, want %d-%d", n, cfg.ComplexMin, cfg.ComplexMax)
		}
		if got := sparql.Classify(q); got != sparql.ShapeComplex {
			t.Errorf("complex bucket query classified %v:\n%s", got, q)
		}
	}
	// RequireNonEmpty: every query must have answers.
	g := newQueryGen(d, 1)
	for _, lq := range w.All() {
		if !g.hasAnswers(lq.Query) {
			t.Errorf("%s query has no answers:\n%s", lq.Shape, lq.Query)
		}
	}
}

func TestYagoWorkloadHasNoChains(t *testing.T) {
	cfg := StandardWorkloadConfig("yago", 3)
	if cfg.Chain != 0 {
		t.Fatalf("YAGO chain bucket = %d, want 0 (Table 1)", cfg.Chain)
	}
	d := YAGO().Generate(0.2, 5)
	w := d.GenerateWorkload(cfg, 9)
	if len(w.Chain) != 0 {
		t.Errorf("YAGO workload generated %d chain queries", len(w.Chain))
	}
	if len(w.Star) != 3 || len(w.Complex) != 3 {
		t.Errorf("YAGO buckets: star=%d complex=%d", len(w.Star), len(w.Complex))
	}
}

// TestLevelTargetedQueries verifies the Fig. 9 generator: a query built
// for L levels must touch exactly the deepest L levels of the class
// hierarchy through the VP index.
func TestLevelTargetedQueries(t *testing.T) {
	d := Shop().Generate(0.5, 13)
	lay := partition(t, d)
	if lay.NumLevels != 6 {
		t.Fatalf("shop levels = %d", lay.NumLevels)
	}
	for L := 2; L <= 6; L++ {
		qs := d.LevelTargetedQueries("User", L, 3, 2, int64(L))
		if len(qs) != 3 {
			t.Fatalf("L=%d: generated %d queries", L, len(qs))
		}
		for _, q := range qs {
			// The union of every pattern's VP levels must be exactly L
			// levels (the deepest L of the User chain).
			var union hpart.LevelSet
			for _, pat := range q.Patterns {
				id := d.Graph.Dict.Lookup(pat.P)
				if id == rdf.NoID {
					t.Fatalf("L=%d: property %v not in data", L, pat.P)
				}
				union = union.Union(lay.PropertyLevels(id))
			}
			if union.Count() != L {
				t.Errorf("L=%d: query touches %v (%d levels)\n%s", L, union, union.Count(), q)
			}
			if union.Max() != 6 {
				t.Errorf("L=%d: deepest level %d, want 6", L, union.Max())
			}
		}
	}
	// Out-of-range requests yield nothing.
	if qs := d.LevelTargetedQueries("User", 99, 1, 2, 1); qs != nil {
		t.Error("out-of-range level count accepted")
	}
	if qs := d.LevelTargetedQueries("NoClass", 2, 1, 2, 1); qs != nil {
		t.Error("unknown class accepted")
	}
}

func TestDatasetByName(t *testing.T) {
	if d := DatasetByName("uniprot"); d == nil || d.Levels != 5 {
		t.Error("DatasetByName(uniprot) broken")
	}
	if DatasetByName("nope") != nil {
		t.Error("DatasetByName(nope) returned a dataset")
	}
}

func TestScaleControlsSize(t *testing.T) {
	small := Shop().Generate(0.1, 2)
	big := Shop().Generate(0.4, 2)
	if big.Graph.Len() < 3*small.Graph.Len() {
		t.Errorf("scale 0.4 (%d triples) not ~4x scale 0.1 (%d)", big.Graph.Len(), small.Graph.Len())
	}
}

func TestInstanceDepthRecorded(t *testing.T) {
	d := Uniprot().Generate(0.1, 4)
	found := false
	for _, iri := range d.InstancesByClass["Protein"] {
		if d.InstanceDepth(iri) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no protein has a recorded positive depth")
	}
}

// TestGenerateWorkloadDeterministic: one seed fixes the workload — the
// same query strings, in the same order — for every standard dataset.
func TestGenerateWorkloadDeterministic(t *testing.T) {
	for _, nd := range StandardDatasets() {
		cfg := StandardWorkloadConfig(nd.Name, 3)
		var runs [2][]string
		for i := range runs {
			d := nd.Schema.Generate(0.02, 5)
			for _, lq := range d.GenerateWorkload(cfg, 11).All() {
				runs[i] = append(runs[i], lq.Shape+" "+lq.Query.String())
			}
		}
		if len(runs[0]) == 0 {
			t.Errorf("%s: empty workload", nd.Name)
		}
		if strings.Join(runs[0], "\n") != strings.Join(runs[1], "\n") {
			t.Errorf("%s: same seed, different workloads:\n%s\n--- vs ---\n%s",
				nd.Name, strings.Join(runs[0], "\n"), strings.Join(runs[1], "\n"))
		}
	}
}
