package ping

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ping/internal/engine"
	"ping/internal/faults"
	"ping/internal/hpart"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

var resumeQueries = append(append([]string(nil), testQueries...),
	`SELECT * WHERE { ?x <p0>+ ?y }`,
	`SELECT * WHERE { ?x <p0>/<p1> ?y }`,
	`SELECT * WHERE { ?x <p0>+ ?y . ?y <p1> ?z }`,
	`SELECT * WHERE { ?x <p0> ?y } LIMIT 3`,
)

// resumeOracle evaluates q exactly over the whole graph (Naive handles
// only triple patterns; path queries go through EvaluatePaths).
func resumeOracle(t *testing.T, g *rdf.Graph, q *sparql.Query) map[string]bool {
	t.Helper()
	if len(q.Paths) == 0 {
		return answerSet(engine.Naive(g, q).Distinct())
	}
	return answerSet(pathOracle(t, g, q))
}

// runAll drives a PQARun to completion, collecting the per-step answer
// cardinalities and the last step.
func runAll(t *testing.T, proc *Processor, q *sparql.Query) (counts []int, rows []int64, last StepResult, status *RunStatus) {
	t.Helper()
	st, err := proc.PQARunOn(context.Background(), nil, q, Budget{}, func(sr StepResult, _ *Checkpoint) bool {
		counts = append(counts, sr.Answers.Card())
		rows = append(rows, sr.RowsLoadedCum)
		last = sr
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if !st.Done || st.Reason != StopCompleted {
		t.Fatalf("%s: uninterrupted run not done: %+v", q, st)
	}
	return counts, rows, last, st
}

// TestKillAndResumeMatchesUninterrupted is the core chaos property: a
// PQA interrupted after ANY completed step and resumed from its
// checkpoint delivers the same per-step answer trajectory, the same
// cumulative row accounting, and the same final answer set as an
// uninterrupted run — which in turn equals the naive oracle.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		g := nestedGraph(seed, 50, 5)
		for _, strategy := range []SliceStrategy{LevelCumulative, LargestFirst} {
			lay := mustPartition(t, g)
			proc := NewProcessor(lay, Options{Strategy: strategy})
			for _, qs := range resumeQueries {
				q := sparql.MustParse(qs)
				wantCounts, wantRows, wantLast, _ := runAll(t, proc, q)
				if len(wantCounts) < 2 {
					continue // nothing to interrupt
				}
				oracle := resumeOracle(t, g, q)

				for k := 1; k < len(wantCounts); k++ {
					// Interrupt: budget of k steps, keep the checkpoint.
					var got []int
					var gotRows []int64
					st, err := proc.PQARunOn(context.Background(), nil, q, Budget{MaxSteps: k}, func(sr StepResult, cp *Checkpoint) bool {
						got = append(got, sr.Answers.Card())
						gotRows = append(gotRows, sr.RowsLoadedCum)
						if cp == nil {
							t.Fatalf("%s: no checkpoint on step %d", qs, sr.Step)
						}
						return true
					})
					if err != nil {
						t.Fatalf("%s k=%d: %v", qs, k, err)
					}
					if st.Done || st.Checkpoint == nil || st.Reason != StopBudgetSteps {
						t.Fatalf("%s k=%d: expected budget pause, got %+v", qs, k, st)
					}
					if st.StepsDone != k {
						t.Fatalf("%s k=%d: segment ran %d steps", qs, k, st.StepsDone)
					}

					// Resume and finish.
					var lastSR StepResult
					rst, err := proc.PQAResumeRun(context.Background(), nil, st.Checkpoint, Budget{}, func(sr StepResult, _ *Checkpoint) bool {
						got = append(got, sr.Answers.Card())
						gotRows = append(gotRows, sr.RowsLoadedCum)
						lastSR = sr
						return true
					})
					if err != nil {
						t.Fatalf("%s k=%d resume: %v", qs, k, err)
					}
					if !rst.Done {
						t.Fatalf("%s k=%d: resumed run did not finish: %+v", qs, k, rst)
					}

					// Per-step coverage trajectory identical.
					if len(got) != len(wantCounts) {
						t.Fatalf("%s k=%d: %d steps across segments, want %d", qs, k, len(got), len(wantCounts))
					}
					for i := range got {
						if got[i] != wantCounts[i] {
							t.Fatalf("%s k=%d: step %d has %d answers, want %d", qs, k, i+1, got[i], wantCounts[i])
						}
						if gotRows[i] != wantRows[i] {
							t.Fatalf("%s k=%d: step %d loaded %d cumulative rows, want %d", qs, k, i+1, gotRows[i], wantRows[i])
						}
					}
					// Final answer set identical (and exact, per oracle).
					gotSet := answerSet(lastSR.Answers)
					wantSet := answerSet(wantLast.Answers)
					if len(gotSet) != len(wantSet) || !subset(gotSet, wantSet) {
						t.Fatalf("%s k=%d: resumed final set differs from uninterrupted", qs, k)
					}
					if q.Limit == 0 && (len(gotSet) != len(oracle) || !subset(gotSet, oracle)) {
						t.Fatalf("%s k=%d: resumed final set differs from oracle", qs, k)
					}
				}
			}
		}
	}
}

// TestResumeEveryStepSeparately hibernates after every single step —
// the worst case of a client that dies between each pair of steps.
func TestResumeEveryStepSeparately(t *testing.T) {
	g := nestedGraph(7, 50, 5)
	lay := mustPartition(t, g)
	proc := NewProcessor(lay, Options{})
	for _, qs := range resumeQueries {
		q := sparql.MustParse(qs)
		wantCounts, _, wantLast, _ := runAll(t, proc, q)
		if len(wantCounts) == 0 {
			continue
		}

		var got []int
		var lastSR StepResult
		collect := func(sr StepResult, _ *Checkpoint) bool {
			got = append(got, sr.Answers.Card())
			lastSR = sr
			return true
		}
		st, err := proc.PQARunOn(context.Background(), nil, q, Budget{MaxSteps: 1}, collect)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		for !st.Done {
			st, err = proc.PQAResumeRun(context.Background(), nil, st.Checkpoint, Budget{MaxSteps: 1}, collect)
			if err != nil {
				t.Fatalf("%s: %v", qs, err)
			}
		}
		if len(got) != len(wantCounts) {
			t.Fatalf("%s: %d steps, want %d", qs, len(got), len(wantCounts))
		}
		for i := range got {
			if got[i] != wantCounts[i] {
				t.Fatalf("%s: step %d has %d answers, want %d", qs, i+1, got[i], wantCounts[i])
			}
		}
		gotSet, wantSet := answerSet(lastSR.Answers), answerSet(wantLast.Answers)
		if len(gotSet) != len(wantSet) || !subset(gotSet, wantSet) {
			t.Fatalf("%s: one-step-at-a-time final set differs", qs)
		}
	}
}

// TestBudgetRowsPicksMaximalPrefix: with a row budget, the segment must
// execute the longest schedule prefix whose predicted rows fit (answers
// coverage is monotone in steps, so longest prefix = maximal predicted
// coverage), then pause with a usable cursor.
func TestBudgetRowsPicksMaximalPrefix(t *testing.T) {
	g := nestedGraph(3, 60, 5)
	lay := mustPartition(t, g)
	proc := NewProcessor(lay, Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)

	// Predicted per-step rows from an unbudgeted run.
	var stepRows []int64
	if _, err := proc.PQARunOn(context.Background(), nil, q, Budget{}, func(sr StepResult, _ *Checkpoint) bool {
		stepRows = append(stepRows, sr.RowsLoadedStep)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(stepRows) < 3 {
		t.Skipf("schedule too short (%d steps)", len(stepRows))
	}
	// Budget that affords exactly the first two steps.
	budget := stepRows[0] + stepRows[1]
	var executed int
	st, err := proc.PQARunOn(context.Background(), nil, q, Budget{MaxLoadedRows: budget}, func(sr StepResult, _ *Checkpoint) bool {
		executed++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 2 {
		t.Fatalf("executed %d steps within a 2-step row budget", executed)
	}
	if st.Done || st.Reason != StopBudgetRows || st.Checkpoint == nil {
		t.Fatalf("status %+v", st)
	}
	// The cursor is usable: resuming without a budget completes exactly.
	oracle := answerSet(engine.Naive(g, q).Distinct())
	var last StepResult
	rst, err := proc.PQAResumeRun(context.Background(), nil, st.Checkpoint, Budget{}, func(sr StepResult, _ *Checkpoint) bool {
		last = sr
		return true
	})
	if err != nil || !rst.Done {
		t.Fatalf("resume: %v %+v", err, rst)
	}
	got := answerSet(last.Answers)
	if len(got) != len(oracle) || !subset(got, oracle) {
		t.Fatal("budget-paused-then-resumed run lost answers")
	}
}

// TestBudgetNeverStarves: even an absurdly small budget executes one
// step per segment, so repeated resume always terminates.
func TestBudgetNeverStarves(t *testing.T) {
	g := nestedGraph(4, 40, 4)
	proc := NewProcessor(mustPartition(t, g), Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z }`)
	tiny := Budget{MaxLoadedRows: 1, Deadline: time.Nanosecond}
	steps := 0
	st, err := proc.PQARunOn(context.Background(), nil, q, tiny, func(StepResult, *Checkpoint) bool { steps++; return true })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !st.Done; i++ {
		if i > 64 {
			t.Fatal("tiny budget did not terminate")
		}
		st, err = proc.PQAResumeRun(context.Background(), nil, st.Checkpoint, tiny, func(StepResult, *Checkpoint) bool { steps++; return true })
		if err != nil {
			t.Fatal(err)
		}
	}
	if steps == 0 {
		t.Fatal("no steps executed")
	}
}

// TestResumeUnderFaults: kill-and-resume under fault injection with the
// Degrade policy keeps every delivered answer sound (a subset of the
// oracle) and monotone across the segment boundary.
func TestResumeUnderFaults(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		lay, fs, g := chaosLayout(t, seed, 1)
		rng := rand.New(rand.NewSource(seed * 97))
		in := faults.New(randomPlan(rng, 4))
		in.Attach(fs)
		proc := NewProcessor(lay, Options{FailurePolicy: Degrade})
		for _, qs := range testQueries {
			q := sparql.MustParse(qs)
			oracle := answerSet(engine.Naive(g, q).Distinct())
			k := 1 + int(seed)%3
			st, err := proc.PQARunOn(context.Background(), nil, q, Budget{MaxSteps: k}, func(sr StepResult, _ *Checkpoint) bool {
				if !subset(answerSet(sr.Answers), oracle) {
					t.Fatalf("seed %d %q: false positive before pause", seed, qs)
				}
				return true
			})
			if err != nil {
				t.Fatalf("seed %d %q: %v", seed, qs, err)
			}
			if st.Done {
				continue
			}
			prev := map[string]bool{}
			rst, err := proc.PQAResumeRun(context.Background(), nil, st.Checkpoint, Budget{}, func(sr StepResult, _ *Checkpoint) bool {
				cur := answerSet(sr.Answers)
				if !subset(prev, cur) {
					t.Fatalf("seed %d %q: resumed run lost answers", seed, qs)
				}
				if !subset(cur, oracle) {
					t.Fatalf("seed %d %q: resumed run produced a false positive", seed, qs)
				}
				prev = cur
				return true
			})
			if err != nil {
				t.Fatalf("seed %d %q resume: %v", seed, qs, err)
			}
			if !rst.Done {
				t.Fatalf("seed %d %q: unbudgeted resume did not finish", seed, qs)
			}
		}
	}
}

// TestResumeSnapshotMismatch: publishing an update between pause and
// resume changes the layout signature, so resume on the new snapshot is
// refused with ErrSnapshotMismatch (the caller restarts from scratch).
func TestResumeSnapshotMismatch(t *testing.T) {
	g := nestedGraph(9, 40, 4)
	lay := mustPartition(t, g)
	store := hpart.NewStore(lay)
	m, err := hpart.NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}
	proc := NewProcessorStore(store, Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)

	st, err := proc.PQARunOn(context.Background(), nil, q, Budget{MaxSteps: 1}, func(StepResult, *Checkpoint) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Skip("schedule has a single step")
	}
	add := []rdf.Triple{{
		S: g.Dict.EncodeIRI("s0"),
		P: g.Dict.EncodeIRI("p9"),
		O: g.Dict.EncodeIRI("s1"),
	}}
	if err := m.Apply(add, nil); err != nil {
		t.Fatal(err)
	}
	_, err = proc.PQAResumeRun(context.Background(), nil, st.Checkpoint, Budget{}, func(StepResult, *Checkpoint) bool { return true })
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	// A fresh run on the new snapshot succeeds (the restart path).
	res, err := proc.PQACtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("restarted run not exact")
	}
}
