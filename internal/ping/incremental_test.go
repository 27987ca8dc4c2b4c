package ping

import (
	"fmt"
	"math/rand"
	"testing"

	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/faults"
	"ping/internal/hpart"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// referenceSteps re-evaluates q from scratch with engine.EvaluatePaths
// on the sub-partitions each step of a run has accumulated — its own
// NewSubParts and every earlier step's, minus the step's MissingSubParts
// — and returns one distinct answer set per step, plus the rows those
// sub-partitions hold. It shares no code with the step loop's semi-naive
// evaluator, so agreement checks the delta rewrite of Lemma 4.3.
func referenceSteps(t *testing.T, proc *Processor, q *sparql.Query, steps []StepResult) ([]map[string]bool, []int64) {
	t.Helper()
	lay := proc.Layout()
	hl, hlPaths := proc.QuerySlices(q), proc.QueryPathSlices(q)
	blocks := make(map[hpart.SubPartKey]rdf.PairBlock)
	loaded := make(map[hpart.SubPartKey]bool)
	sets := make([]map[string]bool, len(steps))
	rows := make([]int64, len(steps))
	for i, sr := range steps {
		for _, k := range sr.NewSubParts {
			loaded[k] = true
		}
		missing := make(map[hpart.SubPartKey]bool)
		for _, k := range sr.MissingSubParts {
			missing[k] = true
		}
		for k := range loaded {
			if !missing[k] {
				rows[i] += int64(lay.SubPartRows[k])
			}
		}
		// Candidate lists are sorted by (level, prop), so each pattern's
		// groups arrive in the accumulator's order.
		groups := func(candidates []hpart.SubPartKey) []engine.PropGroup {
			var out []engine.PropGroup
			for _, k := range candidates {
				if !loaded[k] || missing[k] {
					continue
				}
				b, ok := blocks[k]
				if !ok {
					pairs, err := lay.ReadSubPartition(k)
					if err != nil {
						t.Fatalf("%s: reference read of %s: %v", q, k, err)
					}
					b = rdf.RawPairs(pairs)
					blocks[k] = b
				}
				out = append(out, engine.PropGroup{Prop: k.Prop, Rows: b})
			}
			return out
		}
		inputs := make([]engine.PatternInput, len(q.Patterns))
		for j, pat := range q.Patterns {
			inputs[j] = engine.PatternInput{Pattern: pat, Groups: groups(hl[j])}
		}
		pathInputs := make([]engine.PathInput, len(q.Paths))
		for j, pat := range q.Paths {
			pathInputs[j] = engine.PathInput{Pattern: pat, Groups: groups(hlPaths[j])}
		}
		rel, _, err := engine.EvaluatePaths(q, inputs, pathInputs, lay.DictView(), engine.Options{})
		if err != nil {
			t.Fatalf("%s: reference evaluation: %v", q, err)
		}
		sets[i] = answerSet(rel.Distinct())
	}
	return sets, rows
}

// checkAgainstReference compares every step of a run with referenceSteps:
// the same answer set and the same cumulative rows loaded.
func checkAgainstReference(t *testing.T, label string, proc *Processor, q *sparql.Query, res *Result) {
	t.Helper()
	want, wantRows := referenceSteps(t, proc, q, res.Steps)
	for i, sr := range res.Steps {
		got := answerSet(sr.Answers)
		if len(got) != len(want[i]) || !subset(got, want[i]) {
			t.Fatalf("%s %q: step %d has %d answers, reference evaluation %d",
				label, q, i+1, len(got), len(want[i]))
		}
		if sr.RowsLoadedCum != wantRows[i] {
			t.Fatalf("%s %q: step %d loaded %d cumulative rows, accumulated sub-partitions hold %d",
				label, q, i+1, sr.RowsLoadedCum, wantRows[i])
		}
	}
}

// TestIncrementalMatchesScratch is the acceptance property of the
// semi-naive evaluator: for every strategy and query, every step must
// deliver exactly the answer *set* that a from-scratch evaluation
// (engine.EvaluatePaths) computes on the sub-partitions the run has
// accumulated so far — not just at the end — and row accounting must
// equal what those sub-partitions hold.
func TestIncrementalMatchesScratch(t *testing.T) {
	queries := append(append([]string(nil), testQueries...), pathQueries...)
	for seed := int64(0); seed < 4; seed++ {
		g := nestedGraph(seed, 60, 5)
		lay := mustPartition(t, g)
		strategies := []SliceStrategy{LevelCumulative, ProductOrder, LargestFirst, SmallestFirst}
		for _, strat := range strategies {
			proc := NewProcessor(lay, Options{Strategy: strat})
			for _, qs := range queries {
				q := sparql.MustParse(qs)
				res, err := proc.PQA(q)
				if err != nil {
					t.Fatalf("seed %d %s %q: %v", seed, strat, qs, err)
				}
				checkAgainstReference(t, fmt.Sprintf("seed %d %s", seed, strat), proc, q, res)
			}
		}
	}
}

// TestIncrementalMatchesScratchUnderFaults re-checks the equivalence
// with storage faults under the Degrade policy. A fully killed node is a
// time-invariant fault: with no replication the same blocks fail on
// every read, so the reference evaluation, which leaves out each step's
// MissingSubParts, reads exactly the sub-partitions the run folded in.
func TestIncrementalMatchesScratchUnderFaults(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		lay, fs, _ := chaosLayout(t, seed, 1)
		in := faults.New(faults.Plan{})
		in.Attach(fs)
		in.KillNode(int(seed) % 4)

		proc := NewProcessor(lay, Options{
			FailurePolicy: Degrade,
			// Cached rows would mask the dead node from later runs.
			DisableSubPartCache: true,
		})
		for _, qs := range testQueries {
			q := sparql.MustParse(qs)
			res, err := proc.PQA(q)
			if err != nil {
				t.Fatalf("seed %d %q: %v", seed, qs, err)
			}
			checkAgainstReference(t, fmt.Sprintf("seed %d faults", seed), proc, q, res)
			if n := len(res.Steps); n > 0 && res.Exact != (len(res.Steps[n-1].MissingSubParts) == 0) {
				t.Fatalf("seed %d %q: Exact %v with %d missing sub-partitions",
					seed, qs, res.Exact, len(res.Steps[n-1].MissingSubParts))
			}
		}
	}
}

// TestLimitCapsCumulativeAnswers: LIMIT N caps the cumulative answer
// list, so Lemma 4.3 still holds under every strategy, with one and with
// four workers: each step's answers contain the previous step's, no step
// holds more than N, and the final answer is a subset of the unlimited
// query's exact answer with min(N, |exact|) rows.
func TestLimitCapsCumulativeAnswers(t *testing.T) {
	limitQueries := []string{
		`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z } LIMIT 3`,
		`SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z } LIMIT 5`,
		`SELECT ?x WHERE { ?x <p0> ?y . ?y <p0> ?z } LIMIT 4`,
		`SELECT * WHERE { ?x <p0> ?y } LIMIT 7`,
	}
	strategies := []SliceStrategy{LevelCumulative, ProductOrder, LargestFirst, SmallestFirst}
	for seed := int64(0); seed < 6; seed++ {
		g := nestedGraph(seed, 60, 5)
		lay := mustPartition(t, g)
		for _, strat := range strategies {
			for _, workers := range []int{1, 4} {
				proc := NewProcessor(lay, Options{Strategy: strat, Context: dataflow.NewContext(workers)})
				for _, qs := range limitQueries {
					q := sparql.MustParse(qs)
					unlimited := *q
					unlimited.Limit = 0
					oracle := answerSet(engine.Naive(g, &unlimited).Distinct())
					res, err := proc.PQA(q)
					if err != nil {
						t.Fatalf("seed %d %s w=%d %q: %v", seed, strat, workers, qs, err)
					}
					prev := map[string]bool{}
					for i, sr := range res.Steps {
						cur := answerSet(sr.Answers)
						if sr.Answers.Card() > q.Limit {
							t.Fatalf("seed %d %s w=%d %q: step %d has %d answers, LIMIT %d",
								seed, strat, workers, qs, i+1, sr.Answers.Card(), q.Limit)
						}
						if !subset(prev, cur) {
							t.Fatalf("seed %d %s w=%d %q: step %d lost answers of step %d",
								seed, strat, workers, qs, i+1, i)
						}
						prev = cur
					}
					final := answerSet(res.Final)
					if !subset(final, oracle) {
						t.Fatalf("seed %d %s w=%d %q: final answer not a subset of the exact answer",
							seed, strat, workers, qs)
					}
					if want := min(q.Limit, len(oracle)); len(final) != want {
						t.Fatalf("seed %d %s w=%d %q: final has %d answers, want min(%d, %d) = %d",
							seed, strat, workers, qs, len(final), q.Limit, len(oracle), want)
					}
				}
			}
		}
	}
}

// TestChaosParallelLoaderSound re-runs the degraded-soundness chaos
// property with a multi-worker dataflow context, so sub-partition loads
// genuinely race on the worker pool (exercised under -race). Soundness
// (answers ⊆ oracle) and monotonicity are order-independent, so they
// must hold regardless of worker interleaving; the missing list must
// also stay deterministic (fold order is input-key order, not completion
// order).
func TestChaosParallelLoaderSound(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		lay, fs, g := chaosLayout(t, seed, 1)
		rng := rand.New(rand.NewSource(seed * 131))
		in := faults.New(randomPlan(rng, 4))
		in.Attach(fs)
		proc := NewProcessor(lay, Options{
			Context:       dataflow.NewContext(4),
			FailurePolicy: Degrade,
		})

		for _, qs := range testQueries {
			q := sparql.MustParse(qs)
			oracle := answerSet(engine.Naive(g, q).Distinct())
			res, err := proc.PQA(q)
			if err != nil {
				t.Fatalf("seed %d %q: %v", seed, qs, err)
			}
			prev := map[string]bool{}
			for i, step := range res.Steps {
				cur := answerSet(step.Answers)
				if !subset(prev, cur) {
					t.Fatalf("seed %d %q: step %d lost answers with parallel loader", seed, qs, i+1)
				}
				if !subset(cur, oracle) {
					t.Fatalf("seed %d %q: step %d false positive with parallel loader", seed, qs, i+1)
				}
				prev = cur
			}
			if res.Exact {
				got := answerSet(res.Final)
				if len(got) != len(oracle) {
					t.Fatalf("seed %d %q: exact run has %d answers, oracle %d", seed, qs, len(got), len(oracle))
				}
			}
		}
	}
}

// TestParallelLoaderMatchesSerial: with no faults, a multi-worker run
// must be byte-for-byte equivalent to the serial run — same steps, same
// answer sets, same row accounting — because results are folded in
// input-key order regardless of completion order.
func TestParallelLoaderMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := nestedGraph(seed, 60, 5)
		lay := mustPartition(t, g)
		serial := NewProcessor(lay, Options{})
		par := NewProcessor(lay, Options{Context: dataflow.NewContext(8)})
		for _, qs := range testQueries {
			q := sparql.MustParse(qs)
			rs, err := serial.PQA(q)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := par.PQA(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Steps) != len(rp.Steps) {
				t.Fatalf("seed %d %q: %d vs %d steps", seed, qs, len(rs.Steps), len(rp.Steps))
			}
			for i := range rs.Steps {
				a, b := answerSet(rs.Steps[i].Answers), answerSet(rp.Steps[i].Answers)
				if len(a) != len(b) || !subset(a, b) {
					t.Fatalf("seed %d %q: step %d answers diverge serial vs parallel", seed, qs, i+1)
				}
				if rs.Steps[i].RowsLoadedCum != rp.Steps[i].RowsLoadedCum {
					t.Fatalf("seed %d %q: step %d rows %d vs %d",
						seed, qs, i+1, rs.Steps[i].RowsLoadedCum, rp.Steps[i].RowsLoadedCum)
				}
			}
		}
	}
}

// TestSubPartCacheMetrics: a repeated query over the same layout must be
// served from the decoded sub-partition cache (hits recorded, no new
// misses beyond the first run's loads).
func TestSubPartCacheMetrics(t *testing.T) {
	g := nestedGraph(1, 60, 5)
	fs := dfs.New(dfs.Config{})
	lay, err := hpart.Partition(g, hpart.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	proc := NewProcessor(lay, Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)

	totalReads := func() int64 {
		var n int64
		for _, r := range fs.Usage().NodeReads {
			n += r
		}
		return n
	}
	r1, err := proc.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	readsAfterFirst := totalReads()
	r2, err := proc.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := totalReads(); got != readsAfterFirst {
		t.Fatalf("second run touched storage: %d reads, want %d", got, readsAfterFirst)
	}
	a, b := answerSet(r1.Final), answerSet(r2.Final)
	if len(a) != len(b) || !subset(a, b) {
		t.Fatal("cached run returned different answers")
	}
	// Row accounting is cache-independent: loads count rows folded into
	// the accumulator whether or not storage was touched.
	if r1.Steps[len(r1.Steps)-1].RowsLoadedCum != r2.Steps[len(r2.Steps)-1].RowsLoadedCum {
		t.Fatal("cache changed row accounting")
	}
	if lay.SubPartCacheLen() == 0 {
		t.Fatal("cache is empty after two runs")
	}
}
