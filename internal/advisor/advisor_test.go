package advisor

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
	"ping/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureGraph builds a deterministic four-level hierarchy:
// CS {p,q} ⊂ {p,q,f1} ⊂ {p,q,f1,f2} ⊂ {p,q,f1,f2,f3}. Every level has p
// and q rows (so chain candidates span all levels and no pre-cover step
// merging applies), but the only p-edge that reaches a q-subject is
// l4s0 → l1s0: the hot chain query answers at the deepest step, levels
// 1–3 are cold for it, and the p⋈q reductions prune the dead-end
// sub-partitions on both sides.
func fixtureGraph() *rdf.Graph {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	levelProps := [][]string{
		{"p", "q"},
		{"p", "q", "f1"},
		{"p", "q", "f1", "f2"},
		{"p", "q", "f1", "f2", "f3"},
	}
	counts := []int{5, 4, 3, 2}
	for l, props := range levelProps {
		for i := 0; i < counts[l]; i++ {
			s := fmt.Sprintf("l%ds%d", l+1, i)
			for _, p := range props {
				// Objects are dead ends (never subjects) by default.
				g.Add(iri(s), iri(p), iri(fmt.Sprintf("%s-%s", s, p)))
			}
		}
	}
	// The one live chain edge: a deepest-level subject points at a
	// level-1 subject, so ?x <p> ?y . ?y <q> ?z answers only once the
	// schedule reaches level 4.
	g.Add(iri("l4s0"), iri("p"), iri("l1s0"))
	g.Dedup()
	return g
}

// fixtureStats is the recorded workload: the join query dominates, the
// point query rides along, plus one unparseable row that Analyze must
// skip (a foreign stats file may carry junk).
func fixtureStats() []workload.FingerprintStats {
	return []workload.FingerprintStats{
		{Fingerprint: "fp-chain", Canonical: `SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }`,
			Shape: "chain", Count: 10, TotalMs: 100},
		{Fingerprint: "fp-point", Canonical: `SELECT * WHERE { ?x <f3> ?y }`,
			Shape: "point", Count: 5, TotalMs: 50},
		{Fingerprint: "fp-junk", Canonical: `NOT SPARQL AT ALL`, Count: 99, TotalMs: 1},
	}
}

func fixtureLayout(t *testing.T) (*rdf.Graph, *hpart.Layout) {
	t.Helper()
	g := fixtureGraph()
	lay, err := hpart.Partition(g, hpart.Options{FS: dfs.New(dfs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumLevels != 4 {
		t.Fatalf("fixture levels = %d, want 4", lay.NumLevels)
	}
	return g, lay
}

// TestAnalyzeGolden locks the full recommendation document: hot table,
// cold levels, merge plan, join selection and the p95 estimate. Run with
// -update to regenerate testdata/advice.golden.json after an intended
// format or algorithm change.
func TestAnalyzeGolden(t *testing.T) {
	_, lay := fixtureLayout(t)
	adv, err := Analyze(lay, fixtureStats(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := adv.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "advice.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("advice drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// The text report must render without error too.
	if err := adv.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRecommendation(t *testing.T) {
	_, lay := fixtureLayout(t)
	adv, err := Analyze(lay, fixtureStats(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Hot) != 2 {
		t.Fatalf("hot = %d, want 2 (junk row skipped)", len(adv.Hot))
	}
	if got, want := fmt.Sprint(adv.ColdLevels), "[1 2 3]"; got != want {
		t.Errorf("cold levels %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(adv.Merges), "[{2 1} {3 1}]"; got != want {
		t.Errorf("merges %s, want %s", got, want)
	}
	if len(adv.Joins) == 0 {
		t.Fatal("no join reduction selected; the a⋈d join should prune shallow a-sub-partitions")
	}
	pruned := 0
	for _, j := range adv.Joins {
		pruned += j.PrunedSubParts
	}
	if pruned < 4 {
		t.Errorf("joins pruned %d sub-partitions total, want >= 4 (the dead-end sides of p⋈q)", pruned)
	}
	if adv.P95StepsToFirstAfter >= adv.P95StepsToFirstBefore {
		t.Errorf("estimated p95 did not improve: before %.0f, after %.0f",
			adv.P95StepsToFirstBefore, adv.P95StepsToFirstAfter)
	}
}

// stepsToFirst runs PQA and returns the 1-based step of the first answer
// (0 when none) plus the exact final answer set.
func stepsToFirst(t *testing.T, proc *ping.Processor, q *sparql.Query) (int, *engine.Relation) {
	t.Helper()
	res, err := proc.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	first := 0
	for _, step := range res.Steps {
		if step.NewAnswers > 0 {
			first = step.Step
			break
		}
	}
	return first, res.Final
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

// TestApplyExactAndFaster is the acceptance property: applying the
// advice preserves exact answers for every query under every slice
// strategy (the advised layout's join reductions must leave the final
// answer equal to engine.Naive's) — and the
// measured (not estimated) steps-to-first of the hot queries drops.
func TestApplyExactAndFaster(t *testing.T) {
	g, lay := fixtureLayout(t)
	stats := fixtureStats()
	adv, err := Analyze(lay, stats, Config{})
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		stats[0].Canonical,
		stats[1].Canonical,
		`SELECT * WHERE { ?x <p> ?y }`,
		`SELECT * WHERE { ?x <f1> ?y . ?x <f2> ?z }`,
		`SELECT * WHERE { ?x <p> ?y . ?x <q> ?z . ?x <f1> ?w }`,
		`SELECT * WHERE { ?x <p> <l1s0> . ?x <f3> ?y }`,
		`SELECT * WHERE { ?x <q> ?y . ?y <q> ?z }`,
	}
	before := make(map[string]int)
	for _, qs := range queries {
		first, _ := stepsToFirst(t, ping.NewProcessor(lay, ping.Options{}), sparql.MustParse(qs))
		before[qs] = first
	}

	m, err := hpart.NewStoreMaintainer(hpart.NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	if err := adv.Apply(m); err != nil {
		t.Fatal(err)
	}
	lay = m.Layout()
	if len(lay.JoinReductions()) == 0 {
		t.Fatal("apply installed no join reductions")
	}

	for _, qs := range queries {
		q := sparql.MustParse(qs)
		oracle := answerSet(engine.Naive(g, q).Distinct())
		for _, strat := range []ping.SliceStrategy{ping.LevelCumulative, ping.ProductOrder, ping.LargestFirst, ping.SmallestFirst} {
			_, final := stepsToFirst(t, ping.NewProcessor(lay, ping.Options{Strategy: strat}), q)
			got := answerSet(final)
			if len(got) != len(oracle) {
				t.Fatalf("%q strat %v: %d answers, oracle %d", qs, strat, len(got), len(oracle))
			}
			for k := range oracle {
				if !got[k] {
					t.Fatalf("%q strat %v: missing answer %s", qs, strat, k)
				}
			}
		}
	}

	// Measured steps-to-first for the hot queries must improve (and never
	// regress for the others).
	proc := ping.NewProcessor(lay, ping.Options{})
	improved := false
	for _, qs := range queries {
		first, _ := stepsToFirst(t, proc, sparql.MustParse(qs))
		if first > before[qs] {
			t.Errorf("%q: steps-to-first regressed %d -> %d", qs, before[qs], first)
		}
		if first < before[qs] {
			improved = true
		}
	}
	if !improved {
		t.Error("no query's measured steps-to-first improved")
	}
	hotFirst, _ := stepsToFirst(t, proc, sparql.MustParse(stats[0].Canonical))
	if hotFirst >= before[stats[0].Canonical] {
		t.Errorf("hot join query steps-to-first %d, want < %d", hotFirst, before[stats[0].Canonical])
	}
}

// TestAnalyzeEmptyWorkload: no observations, no recommendation — and in
// particular no "merge the whole store into one level" degenerate plan.
func TestAnalyzeEmptyWorkload(t *testing.T) {
	_, lay := fixtureLayout(t)
	adv, err := Analyze(lay, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Empty() {
		t.Fatalf("empty workload produced advice: %d merges, %d joins", len(adv.Merges), len(adv.Joins))
	}
}
