package ping

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/sparql"
)

func TestExplainPlan(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?b . ?x <hasKeyword> ?d }`)

	plan, err := proc.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Safe {
		t.Fatal("query is safe but plan says unsafe")
	}
	if plan.Analyzed {
		t.Fatal("Explain must not mark the plan analyzed")
	}
	if plan.Shape != "star" {
		t.Errorf("shape = %q, want star", plan.Shape)
	}
	if len(plan.Patterns) != 2 {
		t.Fatalf("patterns = %d, want 2", len(plan.Patterns))
	}
	for _, pp := range plan.Patterns {
		if !pp.Safe || pp.Candidates == 0 || pp.PredictedRows == 0 {
			t.Errorf("pattern %q: %+v, want safe with candidates and rows", pp.Pattern, pp)
		}
	}
	if len(plan.JoinOrder) != 2 {
		t.Errorf("join order %v, want 2 entries", plan.JoinOrder)
	}

	// The schedule must match what PQA actually runs: same step count,
	// same levels, and the per-step predicted rows equal the rows the run
	// actually loads (nothing is cached or degraded here).
	res, err := proc.PQA(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != len(res.Steps) {
		t.Fatalf("plan has %d steps, run had %d", len(plan.Steps), len(res.Steps))
	}
	for i, ps := range plan.Steps {
		sr := res.Steps[i]
		if ps.Step != sr.Step || ps.MaxLevel != sr.MaxLevel {
			t.Errorf("step %d: plan (step=%d level=%d) vs run (step=%d level=%d)",
				i, ps.Step, ps.MaxLevel, sr.Step, sr.MaxLevel)
		}
		if len(ps.SubParts) != len(sr.NewSubParts) {
			t.Errorf("step %d: plan loads %d subparts, run loaded %d", i, len(ps.SubParts), len(sr.NewSubParts))
		}
		if ps.PredictedRows != sr.RowsLoadedStep {
			t.Errorf("step %d: predicted %d rows, run loaded %d", i, ps.PredictedRows, sr.RowsLoadedStep)
		}
	}
}

func TestExplainUnsafeQuery(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <noSuchProperty> ?y }`)
	plan, err := proc.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Safe || len(plan.Steps) != 0 {
		t.Fatalf("unsafe query produced safe plan: %+v", plan)
	}
	var text bytes.Buffer
	if err := plan.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "UNSAFE") {
		t.Errorf("text rendering missing UNSAFE marker:\n%s", text.String())
	}
}

// TestAnalyzeAgreesWithResult is the acceptance criterion: the analyzed
// plan's per-step actual rows, answers, and coverage must agree with the
// run's Result, and the step count must equal the run's increment of
// ping_steps_total on a private registry.
func TestAnalyzeAgreesWithResult(t *testing.T) {
	reg := obs.NewRegistry()
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{Metrics: reg})
	q := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?b . ?x <hasKeyword> ?d }`)

	steps := reg.Counter("ping_steps_total", nil)
	before := steps.Value()

	plan, res, err := proc.Analyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Analyzed {
		t.Fatal("Analyze did not mark the plan analyzed")
	}
	if len(plan.Steps) != len(res.Steps) {
		t.Fatalf("plan has %d steps, run had %d", len(plan.Steps), len(res.Steps))
	}

	delta := steps.Value() - before
	if delta != int64(len(res.Steps)) {
		t.Errorf("ping_steps_total grew by %d, run had %d steps", delta, len(res.Steps))
	}

	sawJoin := false
	for i, ps := range plan.Steps {
		sr := res.Steps[i]
		if ps.ActualRows != sr.RowsLoadedStep {
			t.Errorf("step %d: plan actual_rows %d, result %d", i, ps.ActualRows, sr.RowsLoadedStep)
		}
		if ps.Answers != sr.Answers.Card() {
			t.Errorf("step %d: plan answers %d, result %d", i, ps.Answers, sr.Answers.Card())
		}
		if ps.NewAnswers != sr.NewAnswers {
			t.Errorf("step %d: plan new_answers %d, result %d", i, ps.NewAnswers, sr.NewAnswers)
		}
		if want := res.Coverage(i); math.Abs(ps.Coverage-want) > 1e-12 {
			t.Errorf("step %d: plan coverage %v, Result.Coverage %v", i, ps.Coverage, want)
		}
		if ps.CacheHits+ps.CacheMisses != int64(len(ps.SubParts)) {
			t.Errorf("step %d: cache hits %d + misses %d != %d loads",
				i, ps.CacheHits, ps.CacheMisses, len(ps.SubParts))
		}
		if ps.ElapsedMs < 0 {
			t.Errorf("step %d: negative elapsed %v", i, ps.ElapsedMs)
		}
		for _, j := range ps.Joins {
			sawJoin = true
			if j.LeftRows <= 0 || j.RightRows <= 0 {
				t.Errorf("step %d: join with empty input: %+v", i, j)
			}
		}
	}
	if !sawJoin {
		t.Error("no join was lifted off the trace for a two-pattern query")
	}
	if plan.Answers != res.Final.Card() {
		t.Errorf("plan answers %d, final %d", plan.Answers, res.Final.Card())
	}
	if !plan.Exact {
		t.Error("clean run should be exact")
	}
	if plan.TotalMs <= 0 {
		t.Errorf("total %vms, want > 0", plan.TotalMs)
	}
	if last := plan.Steps[len(plan.Steps)-1]; math.Abs(last.Coverage-1) > 1e-12 {
		t.Errorf("final step coverage %v, want 1", last.Coverage)
	}

	// Both renderings must work; JSON must round-trip the actuals.
	var text bytes.Buffer
	if err := plan.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ANALYZE", "coverage=", "join order:", "total:"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text rendering missing %q:\n%s", want, text.String())
		}
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rt Plan
	if err := json.Unmarshal(buf.Bytes(), &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Answers != plan.Answers || len(rt.Steps) != len(plan.Steps) || !rt.Analyzed {
		t.Errorf("JSON round-trip mismatch: %+v", rt)
	}

	// Store-backed, under a concurrent writer: the plan and the run share
	// one pinned snapshot, so every predicted step is the step that ran.
	ng := nestedGraph(3, 60, 5)
	store := hpart.NewStore(mustPartition(t, ng))
	maint, err := hpart.NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}
	batches, _ := planBatches(rand.New(rand.NewSource(5)), ng, 8)
	sproc := NewProcessorStore(store, Options{Metrics: obs.NewRegistry()})
	sq := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range batches {
			if err := maint.Apply(b.add, b.remove); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		plan, res, err := sproc.Analyze(context.Background(), sq)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Steps) != len(res.Steps) {
			t.Fatalf("epoch %d: plan has %d steps, run had %d", res.Epoch, len(plan.Steps), len(res.Steps))
		}
		for i, ps := range plan.Steps {
			var ran []PlanSubPart
			for _, k := range res.Steps[i].NewSubParts {
				ran = append(ran, PlanSubPart{Level: k.Level, Prop: ng.Dict.TermString(k.Prop)})
			}
			if len(ps.SubParts) != len(ran) {
				t.Fatalf("epoch %d step %d: predicted %v, ran %v", res.Epoch, i, ps.SubParts, ran)
			}
			for j := range ran {
				if ps.SubParts[j].Level != ran[j].Level || ps.SubParts[j].Prop != ran[j].Prop {
					t.Fatalf("epoch %d step %d: predicted %v, ran %v", res.Epoch, i, ps.SubParts, ran)
				}
			}
		}
	}
}

// TestAnalyzeJoinsNestUnderCallerTrace checks Analyze piggybacks on an
// existing trace instead of rooting a private one.
func TestAnalyzeJoinsNestUnderCallerTrace(t *testing.T) {
	g := fig1Graph()
	proc := NewProcessor(mustPartition(t, g), Options{Metrics: obs.NewRegistry()})
	q := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?b . ?x <hasKeyword> ?d }`)

	ctx, root := obs.NewTrace(context.Background(), "caller")
	if _, _, err := proc.Analyze(ctx, q); err != nil {
		t.Fatal(err)
	}
	root.End()
	if root.Find("analyze") == nil || root.Find("pqa") == nil {
		t.Fatal("analyze/pqa spans not nested under the caller's trace")
	}
}

// TestAnalyzePredictedCoversActual audits the plan's per-step
// PredictedRows against Bloom- and join-reduction-pruned candidate
// lists: the prediction is the row total of exactly the sub-partitions
// the run will load, so with every pruning layer on it must stay an
// upper bound on (and here: equal to) each step's actual rows. A
// prediction below actuals would mean the plan and the executor disagree
// about the candidate set.
func TestAnalyzePredictedCoversActual(t *testing.T) {
	for seed := int64(50); seed < 53; seed++ {
		g := nestedGraph(seed, 60, 5)
		lay := bloomLayout(t, g)
		// Install a join reduction so querySlices prunes for both layers.
		p0 := g.Dict.LookupIRI("p0")
		p1 := g.Dict.LookupIRI("p1")
		key := hpart.JoinKey{PropA: p0, PropB: p1, RoleA: hpart.JoinSubject, RoleB: hpart.JoinSubject}
		red, err := lay.BuildJoinReduction(key)
		if err != nil {
			t.Fatal(err)
		}
		lay.SetJoinReductions(map[hpart.JoinKey]*hpart.JoinReduction{key: red})

		proc := NewProcessor(lay, Options{UseBloomPruning: true})
		for _, qs := range testQueries {
			q := sparql.MustParse(qs)
			plan, _, err := proc.Analyze(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Safe {
				continue
			}
			var predicted, actual int64
			for _, ps := range plan.Steps {
				if ps.PredictedRows < ps.ActualRows {
					t.Errorf("seed %d %q step %d: predicted %d < actual %d",
						seed, qs, ps.Step, ps.PredictedRows, ps.ActualRows)
				}
				predicted += ps.PredictedRows
				actual += ps.ActualRows
			}
			if predicted < actual {
				t.Errorf("seed %d %q: total predicted %d < actual %d", seed, qs, predicted, actual)
			}
			// The answers must still match the oracle with both pruning
			// layers active.
			oracle := answerSet(engine.Naive(g, q).Distinct())
			rel, _, err := proc.EQA(q)
			if err != nil {
				t.Fatal(err)
			}
			got := answerSet(rel)
			if len(got) != len(oracle) || !subset(got, oracle) {
				t.Errorf("seed %d %q: pruned run changed answers (%d vs %d)",
					seed, qs, len(got), len(oracle))
			}
		}
	}
}
