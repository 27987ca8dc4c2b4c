package harness

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"time"

	"ping/internal/advisor"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/ping"
	"ping/internal/sparql"
	"ping/internal/workload"
)

// BenchStep is one PQA slice step of one benchmark query, in the
// machine-readable BENCH_<dataset>.json format.
type BenchStep struct {
	Step         int     `json:"step"`
	MaxLevel     int     `json:"max_level"`
	NewSubParts  int     `json:"new_subparts"`
	RowsLoaded   int64   `json:"rows_loaded_cum"`
	Answers      int     `json:"answers"`
	NewAnswers   int     `json:"new_answers"`
	ElapsedMs    float64 `json:"elapsed_ms"`
	ElapsedCumMs float64 `json:"elapsed_cum_ms"`
	// Coverage is |answers after this step| / |final answers| — the
	// paper's progressiveness metric (1 when the final answer is empty).
	Coverage float64 `json:"coverage"`
	Degraded bool    `json:"degraded,omitempty"`
}

// BenchQuery is the full progressive trajectory of one workload query:
// the per-step latency/coverage curve plus the one-shot exact-answer
// time it is compared against.
type BenchQuery struct {
	Shape        string      `json:"shape"`
	Query        string      `json:"query"`
	Steps        []BenchStep `json:"steps"`
	FinalAnswers int         `json:"final_answers"`
	PQATotalMs   float64     `json:"pqa_total_ms"`
	// EQAMs is the exact-answer (one shot, Algorithm 3) wall-clock time.
	EQAMs float64 `json:"eqa_ms"`
	// FirstAnswerMs is the elapsed time of the first step that produced
	// any answer (0 when no step did).
	FirstAnswerMs float64 `json:"first_answer_ms,omitempty"`
	// StepP50Ms / StepP95Ms / StepP99Ms are step-latency quantiles of this
	// query's run, interpolated from the ping_step_seconds histogram of a
	// per-query metrics registry.
	StepP50Ms float64 `json:"step_p50_ms"`
	StepP95Ms float64 `json:"step_p95_ms"`
	StepP99Ms float64 `json:"step_p99_ms"`
}

// BenchAdvisorRow is one configuration of the workload-adaptive layout
// ablation: the workload's hot fingerprints replayed on the layout the
// partitioner built ("unadvised") and on the layout the advisor
// restructured from the same workload's profile ("advised" — cold CS
// levels merged, join-reduction Bloom filters installed).
type BenchAdvisorRow struct {
	Config     string `json:"config"` // "unadvised" or "advised"
	HotQueries int    `json:"hot_queries"`
	// Merges / JoinReductions / PrunedSubParts describe the applied plan
	// (zero on the unadvised row).
	Merges         int `json:"merges"`
	JoinReductions int `json:"join_reductions"`
	PrunedSubParts int `json:"pruned_subparts"`
	// P95StepsToFirst is the count-weighted p95 of the 1-based first
	// answering step over the hot queries, measured by running them.
	P95StepsToFirst float64 `json:"p95_steps_to_first"`
	// MeanStepsToFirst is the count-weighted mean of the same series.
	MeanStepsToFirst float64 `json:"mean_steps_to_first"`
	PQATotalMs       float64 `json:"pqa_total_ms"`
}

// BenchReport is the machine-readable result of one dataset's workload —
// what pingbench -json-out writes as BENCH_<dataset>.json.
type BenchReport struct {
	Dataset string            `json:"dataset"`
	Triples int               `json:"triples"`
	Levels  int               `json:"levels"`
	Workers int               `json:"workers"`
	Scale   float64           `json:"scale"`
	Seed    int64             `json:"seed"`
	Queries []BenchQuery      `json:"queries"`
	Advisor []BenchAdvisorRow `json:"advisor,omitempty"`
}

// BenchJSON runs the standard workload of one dataset progressively and
// exactly, recording per-query trajectories.
func (s *Suite) BenchJSON(name string) (*BenchReport, error) {
	b, err := s.Dataset(name)
	if err != nil {
		return nil, err
	}
	rep := &BenchReport{
		Dataset: name,
		Triples: b.Data.Graph.Len(),
		Levels:  b.Layout.NumLevels,
		Workers: s.Workers,
		Scale:   b.Spec.Scale * s.Scale,
		Seed:    s.Seed,
	}
	for _, lq := range s.Workload(b).All() {
		bq := BenchQuery{Shape: lq.Shape, Query: lq.Query.String()}

		// A per-query registry isolates this run's ping_step_seconds
		// histogram, so the quantiles below describe this query alone.
		reg := obs.NewRegistry()
		proc := s.Processor(b, ping.Options{Metrics: reg})

		res, err := proc.PQACtx(context.Background(), lq.Query)
		if err != nil {
			return nil, err
		}
		for i, st := range res.Steps {
			bq.Steps = append(bq.Steps, BenchStep{
				Step:         st.Step,
				MaxLevel:     st.MaxLevel,
				NewSubParts:  len(st.NewSubParts),
				RowsLoaded:   st.RowsLoadedCum,
				Answers:      st.Answers.Card(),
				NewAnswers:   st.NewAnswers,
				ElapsedMs:    ms(st.Elapsed),
				ElapsedCumMs: ms(st.ElapsedCum),
				Coverage:     res.Coverage(i),
				Degraded:     st.Degraded,
			})
			if bq.FirstAnswerMs == 0 && st.Answers.Card() > 0 {
				bq.FirstAnswerMs = ms(st.ElapsedCum)
			}
		}
		bq.FinalAnswers = res.Final.Card()
		if n := len(res.Steps); n > 0 {
			bq.PQATotalMs = ms(res.Steps[n-1].ElapsedCum)
		}
		stepHist := reg.Histogram("ping_step_seconds", obs.TimeBuckets, nil)
		bq.StepP50Ms = stepHist.Quantile(0.5) * 1000
		bq.StepP95Ms = stepHist.Quantile(0.95) * 1000
		bq.StepP99Ms = stepHist.Quantile(0.99) * 1000

		t0 := time.Now()
		if _, err := proc.EQAFull(context.Background(), lq.Query); err != nil {
			return nil, err
		}
		bq.EQAMs = ms(time.Since(t0))

		rep.Queries = append(rep.Queries, bq)
	}

	adv, err := s.AdvisorAblation(b)
	if err != nil {
		return nil, err
	}
	rep.Advisor = adv
	return rep, nil
}

// AdvisorAblation closes the workload loop for one dataset: profile the
// workload, ask the advisor for a layout plan, apply it copy-on-write to
// a private store, and measure the hot queries' steps-to-first-answer on
// both layouts. Returns nil (no section) when the workload yields no hot
// queries.
func (s *Suite) AdvisorAblation(b *BuiltDataset) ([]BenchAdvisorRow, error) {
	prof := workload.NewProfiler(workload.Options{Metrics: obs.NewRegistry()})
	proc := s.Processor(b, ping.Options{UseBloomPruning: true, Metrics: obs.NewRegistry()})
	for _, lq := range s.Workload(b).All() {
		t0 := time.Now()
		res, err := proc.PQACtx(context.Background(), lq.Query)
		if err != nil {
			return nil, err
		}
		o := workload.Observation{
			Latency: time.Since(t0),
			Steps:   len(res.Steps),
			Answers: res.Final.Card(),
		}
		for _, st := range res.Steps {
			if st.NewAnswers > 0 {
				o.StepsToFirstAnswer = st.Step
				break
			}
		}
		prof.Observe(lq.Query, o)
	}

	advice, err := advisor.Analyze(b.Layout, prof.Snapshot(), advisor.Config{})
	if err != nil {
		return nil, err
	}
	if len(advice.Hot) == 0 {
		return nil, nil
	}
	hot := make([]*sparql.Query, 0, len(advice.Hot))
	counts := make([]int64, 0, len(advice.Hot))
	for _, h := range advice.Hot {
		q, err := sparql.Parse(h.Canonical)
		if err != nil {
			continue
		}
		hot = append(hot, q)
		counts = append(counts, h.Count)
	}

	measure := func(config string, lay *hpart.Layout) (BenchAdvisorRow, error) {
		row := BenchAdvisorRow{Config: config, HotQueries: len(hot)}
		p := ping.NewProcessor(lay, ping.Options{
			Context:             s.ctx,
			UseBloomPruning:     true,
			DisableSubPartCache: true,
			Metrics:             obs.NewRegistry(),
		})
		steps := make([]int, len(hot))
		for i, q := range hot {
			t0 := time.Now()
			res, err := p.PQACtx(context.Background(), q)
			if err != nil {
				return row, err
			}
			row.PQATotalMs += ms(time.Since(t0))
			for _, st := range res.Steps {
				if st.NewAnswers > 0 {
					steps[i] = st.Step
					break
				}
			}
		}
		row.P95StepsToFirst = weightedQuantileSteps(steps, counts, 0.95)
		var sum, total float64
		for i, st := range steps {
			if st == 0 {
				continue
			}
			sum += float64(st) * float64(counts[i])
			total += float64(counts[i])
		}
		if total > 0 {
			row.MeanStepsToFirst = sum / total
		}
		return row, nil
	}

	before, err := measure("unadvised", b.Layout)
	if err != nil {
		return nil, err
	}
	rows := []BenchAdvisorRow{before}

	advised := b.Layout
	if !advice.Empty() {
		st := hpart.NewStore(b.Layout)
		// Hold the pre-advice epoch pinned for the life of the process:
		// the restructure retires the sub-partition files it rewrote, and
		// letting the store collect them would pull the storage out from
		// under the suite's shared cached layout.
		if _, unpin := st.Pin(); unpin != nil {
			_ = unpin // deliberately never released
		}
		m, err := hpart.NewStoreMaintainer(st)
		if err != nil {
			return nil, err
		}
		if err := advice.Apply(m); err != nil {
			return nil, err
		}
		advised = st.Current()
	}
	after, err := measure("advised", advised)
	if err != nil {
		return nil, err
	}
	after.Merges = len(advice.Merges)
	after.JoinReductions = len(advice.Joins)
	for _, j := range advice.Joins {
		after.PrunedSubParts += j.PrunedSubParts
	}
	return append(rows, after), nil
}

// weightedQuantileSteps is the count-weighted q-quantile of the measured
// steps-to-first values, ignoring queries that never answered (step 0).
func weightedQuantileSteps(steps []int, counts []int64, q float64) float64 {
	type item struct {
		v int
		w int64
	}
	var items []item
	var total int64
	for i, st := range steps {
		if st == 0 {
			continue
		}
		items = append(items, item{st, counts[i]})
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	threshold := q * float64(total)
	var cum int64
	for _, it := range items {
		cum += it.w
		if float64(cum) >= threshold {
			return float64(it.v)
		}
	}
	return float64(items[len(items)-1].v)
}

// WriteJSON serializes the report, indented, to w.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
