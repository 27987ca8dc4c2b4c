package ping

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// fig1Graph is the running example of the paper (Fig. 1): three proteins
// across three hierarchy levels.
func fig1Graph() *rdf.Graph {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	g.Add(iri("P26474"), iri("occursIn"), iri("Organism7"))
	g.Add(iri("P26474"), iri("hasKeyword"), iri("Keyword546"))
	g.Add(iri("P43426"), iri("occursIn"), iri("Organism584"))
	g.Add(iri("P43426"), iri("hasKeyword"), iri("Keyword125"))
	g.Add(iri("P43426"), iri("reference"), iri("Article972"))
	g.Add(iri("P38952"), iri("occursIn"), iri("Organism676"))
	g.Add(iri("P38952"), iri("hasKeyword"), iri("Keyword789"))
	g.Add(iri("P38952"), iri("reference"), iri("Article892"))
	g.Add(iri("P38952"), iri("interacts"), iri("P43426"))
	return g
}

func mustPartition(t *testing.T, g *rdf.Graph) *hpart.Layout {
	t.Helper()
	lay, err := hpart.Partition(g, hpart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func answerSet(rel *engine.Relation) map[string]bool {
	set := make(map[string]bool, rel.Card())
	for _, row := range rel.Rows {
		key := ""
		for _, v := range row {
			key += fmt.Sprintf("%d|", v)
		}
		set[key] = true
	}
	return set
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestPQARunningExample(t *testing.T) {
	// The intro query (Example 1): star over occursIn + hasKeyword.
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?b . ?x <hasKeyword> ?d }`)
	res, err := proc.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	// Both properties exist on all three levels → three progressive steps.
	if len(res.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(res.Steps))
	}
	// One more answer per level (one protein per level).
	for i, want := range []int{1, 2, 3} {
		if got := res.Steps[i].Answers.Card(); got != want {
			t.Errorf("step %d answers = %d, want %d", i+1, got, want)
		}
	}
	// Coverage climbs 1/3 → 2/3 → 1.
	if c := res.Coverage(0); c < 0.32 || c > 0.35 {
		t.Errorf("coverage(0) = %f", c)
	}
	if res.Coverage(2) != 1 {
		t.Errorf("coverage(final) = %f", res.Coverage(2))
	}
	// Final must match the oracle.
	want := engine.Naive(g, q).Distinct()
	if res.Final.Card() != want.Card() {
		t.Errorf("final = %d answers, oracle = %d", res.Final.Card(), want.Card())
	}
}

func TestPatternSlicesExample5(t *testing.T) {
	// Example 5: T1 = (?x hasKeyword Keyword789). VP[hasKeyword] =
	// {1,2,3}, OI[Keyword789] = {3} → HL(T1) = {L3[hasKeyword]}.
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	pat := sparql.TriplePattern{
		S: rdf.NewVar("x"),
		P: rdf.NewIRI("hasKeyword"),
		O: rdf.NewIRI("Keyword789"),
	}
	hl := proc.PatternSlices(pat)
	if len(hl) != 1 || hl[0].Level != 3 {
		t.Fatalf("HL(T1) = %v, want [L3[hasKeyword]]", hl)
	}
	// T0 = (?x occursIn ?b) spans all three levels.
	hl0 := proc.PatternSlices(sparql.TriplePattern{
		S: rdf.NewVar("x"), P: rdf.NewIRI("occursIn"), O: rdf.NewVar("b"),
	})
	if len(hl0) != 3 {
		t.Fatalf("HL(T0) = %v, want 3 sub-partitions", hl0)
	}
	// T2 = (?x interacts ?y) only on level 3.
	hl2 := proc.PatternSlices(sparql.TriplePattern{
		S: rdf.NewVar("x"), P: rdf.NewIRI("interacts"), O: rdf.NewVar("y"),
	})
	if len(hl2) != 1 || hl2[0].Level != 3 {
		t.Fatalf("HL(T2) = %v", hl2)
	}
}

func TestPQAExample5Query(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	q := sparql.MustParse(`SELECT * WHERE {
		?x <occursIn> ?b .
		?x <hasKeyword> <Keyword789> .
		?x <interacts> ?y }`)
	res, err := proc.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	// Protein38952 is the only answer; it lives on L3.
	if res.Final.Card() != 1 {
		t.Fatalf("final answers = %d, want 1", res.Final.Card())
	}
	want := engine.Naive(g, q).Distinct()
	if res.Final.Card() != want.Card() {
		t.Errorf("PQA final disagrees with oracle")
	}
}

func TestUnsafeQueryReturnsEmpty(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	for _, qs := range []string{
		`SELECT * WHERE { ?x <noSuchProperty> ?y }`,
		`SELECT * WHERE { ?x <occursIn> <NoSuchObject> }`,
		`SELECT * WHERE { <NoSuchSubject> <occursIn> ?y }`,
		// Safe per pattern, but the constant never co-occurs on a level
		// with interacts as subject... (Keyword546 only on L1, interacts
		// only on L3 → second pattern unsafe at shared levels is fine;
		// each pattern is evaluated on its own slice set, so this query
		// is safe but has zero answers.)
	} {
		q := sparql.MustParse(qs)
		if proc.Safe(q) {
			t.Errorf("Safe(%q) = true", qs)
		}
		res, err := proc.PQA(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Steps) != 0 || res.Final.Card() != 0 {
			t.Errorf("unsafe query %q returned %d steps / %d answers", qs, len(res.Steps), res.Final.Card())
		}
		rel, _, err := proc.EQA(q)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Card() != 0 {
			t.Errorf("EQA of unsafe query returned %d answers", rel.Card())
		}
	}
}

// nestedGraph builds a randomized graph with nested characteristic sets
// (prefix chains) plus cross-links, so hierarchies have several levels and
// chain queries have answers.
func nestedGraph(seed int64, subjects, depth int) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph()
	for s := 0; s < subjects; s++ {
		subj := rdf.NewIRI(fmt.Sprintf("s%d", s))
		d := 1 + rng.Intn(depth)
		for i := 0; i < d; i++ {
			// Objects are other subjects so chains can match.
			obj := rdf.NewIRI(fmt.Sprintf("s%d", rng.Intn(subjects)))
			g.Add(subj, rdf.NewIRI(fmt.Sprintf("p%d", i)), obj)
		}
	}
	g.Dedup()
	return g
}

var testQueries = []string{
	`SELECT * WHERE { ?x <p0> ?y }`,
	`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`,
	`SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`,
	`SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z . ?z <p0> ?w }`,
	`SELECT * WHERE { ?x <p2> ?y . ?x <p3> ?z . ?y <p0> ?w }`,
	`SELECT * WHERE { ?x <p0> <s3> }`,
	`SELECT * WHERE { <s1> <p0> ?y . ?y <p1> ?z }`,
	`SELECT DISTINCT ?x WHERE { ?x <p1> ?y . ?x <p2> ?z }`,
}

// TestPQAFormalProperties checks Lemma 4.3 (monotonicity), Lemma 4.4
// (boundedness), and Theorem 4.5 (EQA soundness & completeness) on random
// graphs across all slice strategies.
func TestPQAFormalProperties(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := nestedGraph(seed, 60, 5)
		lay := mustPartition(t, g)
		for _, qs := range testQueries {
			q := sparql.MustParse(qs)
			oracle := answerSet(engine.Naive(g, q).Distinct())
			for _, strat := range []SliceStrategy{LevelCumulative, ProductOrder, LargestFirst, SmallestFirst} {
				proc := NewProcessor(lay, Options{Strategy: strat})
				res, err := proc.PQA(q)
				if err != nil {
					t.Fatalf("seed %d strat %v %q: %v", seed, strat, qs, err)
				}
				prev := map[string]bool{}
				for i, step := range res.Steps {
					cur := answerSet(step.Answers)
					// Lemma 4.3: answers grow monotonically.
					if !subset(prev, cur) {
						t.Fatalf("seed %d strat %v %q: step %d lost answers", seed, strat, qs, i+1)
					}
					// Lemma 4.4: every partial answer is exact.
					if !subset(cur, oracle) {
						t.Fatalf("seed %d strat %v %q: step %d produced a false positive", seed, strat, qs, i+1)
					}
					prev = cur
				}
				// Theorem 4.5: the maximal slice gives the exact result.
				if got := answerSet(res.Final); len(got) != len(oracle) || !subset(got, oracle) {
					t.Fatalf("seed %d strat %v %q: final %d answers, oracle %d",
						seed, strat, qs, len(got), len(oracle))
				}
			}
		}
	}
}

func TestEQAMatchesOracle(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		g := nestedGraph(seed, 80, 5)
		proc := NewProcessor(mustPartition(t, g), Options{})
		for _, qs := range testQueries {
			q := sparql.MustParse(qs)
			rel, stats, err := proc.EQA(q)
			if err != nil {
				t.Fatalf("seed %d %q: %v", seed, qs, err)
			}
			oracle := answerSet(engine.Naive(g, q).Distinct())
			got := answerSet(rel)
			if len(got) != len(oracle) || !subset(got, oracle) {
				t.Fatalf("seed %d %q: EQA %d answers, oracle %d", seed, qs, len(got), len(oracle))
			}
			if rel.Card() > 0 && stats.InputRows == 0 {
				t.Errorf("seed %d %q: no input rows recorded", seed, qs)
			}
		}
	}
}

// TestEQAPrunesDataAccess verifies §5.6's headline: with a constant that
// lives on one level only, PING touches a strict subset of the full
// vertical partition.
func TestEQAPrunesDataAccess(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	// Keyword789 only exists on L3; occursIn spans all levels but the
	// whole vertical partition has 3 rows. The pruned query must load
	// fewer rows than the unpruned one.
	qPruned := sparql.MustParse(`SELECT * WHERE { ?x <hasKeyword> <Keyword789> }`)
	_, statsPruned, err := proc.EQA(qPruned)
	if err != nil {
		t.Fatal(err)
	}
	qFull := sparql.MustParse(`SELECT * WHERE { ?x <hasKeyword> ?k }`)
	_, statsFull, err := proc.EQA(qFull)
	if err != nil {
		t.Fatal(err)
	}
	if statsPruned.InputRows >= statsFull.InputRows {
		t.Errorf("pruned loaded %d rows, full %d: OI pruning ineffective",
			statsPruned.InputRows, statsFull.InputRows)
	}
	if statsPruned.InputRows != 1 {
		t.Errorf("pruned loaded %d rows, want 1 (only L3[hasKeyword])", statsPruned.InputRows)
	}
}

func TestAblationsStillExact(t *testing.T) {
	g := nestedGraph(99, 70, 5)
	lay := mustPartition(t, g)
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)
	oracle := answerSet(engine.Naive(g, q).Distinct())

	base := NewProcessor(lay, Options{})
	baseRes, err := base.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	noSub := NewProcessor(lay, Options{DisableSubPartPruning: true})
	noSubRes, err := noSub.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	noIdx := NewProcessor(lay, Options{DisableIndexPruning: true})
	noIdxRes, err := noIdx.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"base": baseRes, "noSub": noSubRes, "noIdx": noIdxRes} {
		got := answerSet(res.Final)
		if len(got) != len(oracle) || !subset(got, oracle) {
			t.Errorf("%s: %d answers, oracle %d", name, len(got), len(oracle))
		}
	}
	// Disabling sub-partition pruning must not reduce data access.
	lastBase := baseRes.Steps[len(baseRes.Steps)-1].RowsLoadedCum
	lastNoSub := noSubRes.Steps[len(noSubRes.Steps)-1].RowsLoadedCum
	if lastNoSub < lastBase {
		t.Errorf("ablation loaded fewer rows (%d) than baseline (%d)", lastNoSub, lastBase)
	}
}

func TestPQAEarlyStop(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?b . ?x <hasKeyword> ?d }`)
	var seen int
	err := proc.PQAStepsCtx(context.Background(), q, func(s StepResult) bool {
		seen++
		return s.Step < 2 // stop after the second slice
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Errorf("callback ran %d times, want 2", seen)
	}
}

func TestPQARowsAccounting(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?b . ?x <hasKeyword> ?d }`)
	res, err := proc.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	var cum int64
	for i, step := range res.Steps {
		cum += step.RowsLoadedStep
		if step.RowsLoadedCum != cum {
			t.Errorf("step %d: cum rows %d, want %d", i+1, step.RowsLoadedCum, cum)
		}
		if step.ElapsedCum < step.Elapsed {
			t.Errorf("step %d: cumulative time < step time", i+1)
		}
		if step.MaxLevel != i+1 {
			t.Errorf("step %d: MaxLevel = %d", i+1, step.MaxLevel)
		}
	}
	// 2 rows per level for the two properties → 2+2+2.
	if cum != 6 {
		t.Errorf("total rows loaded = %d, want 6", cum)
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	q := &sparql.Query{}
	if _, err := proc.PQA(q); err == nil {
		t.Error("PQA accepted an empty query")
	}
	if _, _, err := proc.EQA(q); err == nil {
		t.Error("EQA accepted an empty query")
	}
	if proc.Safe(q) {
		t.Error("empty query reported safe")
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[SliceStrategy]string{
		LevelCumulative: "level-cumulative",
		ProductOrder:    "product",
		LargestFirst:    "largest-first",
		SmallestFirst:   "smallest-first",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestVariablePredicateQuery(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	q := sparql.MustParse(`SELECT * WHERE { <P38952> ?p ?o }`)
	res, err := proc.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Naive(g, q).Distinct()
	if res.Final.Card() != want.Card() {
		t.Errorf("variable predicate: %d answers, oracle %d", res.Final.Card(), want.Card())
	}
	if res.Final.Card() != 4 {
		t.Errorf("P38952 has %d outgoing edges in results, want 4", res.Final.Card())
	}
}

// TestParseNames pins the command-line names every ping tool accepts
// and the errors for anything else.
func TestParseNames(t *testing.T) {
	for name, want := range map[string]SliceStrategy{
		"level": LevelCumulative, "product": ProductOrder, "largest": LargestFirst, "smallest": SmallestFirst,
	} {
		if got, err := ParseSliceStrategy(name); err != nil || got != want {
			t.Errorf("ParseSliceStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for name, want := range map[string]FailurePolicy{"failfast": FailFast, "degrade": Degrade} {
		if got, err := ParseFailurePolicy(name); err != nil || got != want {
			t.Errorf("ParseFailurePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseSliceStrategy("level-cumulative"); err == nil || err.Error() != `unknown strategy "level-cumulative"` {
		t.Errorf("ParseSliceStrategy of a String() name: err = %v", err)
	}
	if _, err := ParseFailurePolicy("fail-fast"); err == nil || err.Error() != `unknown failure policy "fail-fast" (want failfast or degrade)` {
		t.Errorf("ParseFailurePolicy of a String() name: err = %v", err)
	}
}
