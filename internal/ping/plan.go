package ping

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/sparql"
)

// Plan is the structured EXPLAIN/ANALYZE output of a query: the slice
// schedule PQA would follow, per-pattern candidate sub-partitions
// (HL(t)), and the predicted join order. Analyze additionally annotates
// every step with what actually happened: rows loaded, answers,
// coverage, cache hits, join cardinalities, and wall time.
type Plan struct {
	// Query is the SPARQL surface text the plan was built for.
	Query string `json:"query"`
	// Fingerprint is the workload fingerprint of the query; callers with
	// a fingerprinter (pingd, pingquery) fill it in.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Shape is the workload classification (star, chain, complex).
	Shape string `json:"shape"`
	// Strategy is the slice ordering strategy of the processor.
	Strategy string `json:"strategy"`
	// Epoch is the layout snapshot the plan was computed against. For an
	// analyzed plan this is the epoch the run pinned.
	Epoch uint64 `json:"epoch"`
	// Safe reports whether the query is safe on at least one slice
	// (Def. 4.1); when false no slice steps exist and the answer is empty.
	Safe bool `json:"safe"`
	// Patterns holds one entry per triple pattern, then per path pattern.
	Patterns []PlanPattern `json:"patterns"`
	// JoinOrder predicts the order the engine consumes the pattern
	// relations (indices into Patterns), per its greedy smallest-first
	// policy.
	JoinOrder []int `json:"join_order,omitempty"`
	// Steps is the slice schedule, one entry per progressive step.
	Steps []PlanStep `json:"steps"`
	// Analyzed marks a plan annotated by a real run; the fields below and
	// the per-step actuals are only meaningful when it is true.
	Analyzed bool `json:"analyzed,omitempty"`
	// TotalMs is the analyzed run's wall time.
	TotalMs float64 `json:"total_ms,omitempty"`
	// Answers is the analyzed run's final answer count.
	Answers int `json:"answers,omitempty"`
	// Exact is false when the analyzed run degraded (Lemma 4.4 subset).
	Exact bool `json:"exact,omitempty"`
}

// PlanPattern describes one triple or path pattern's candidate slices.
type PlanPattern struct {
	// Pattern is the SPARQL surface text of the pattern.
	Pattern string `json:"pattern"`
	// Path marks property-path patterns (candidates via VP only).
	Path bool `json:"path,omitempty"`
	// Candidates is |HL(t)| — how many sub-partitions the indexes allow.
	Candidates int `json:"candidates"`
	// Levels lists the distinct hierarchy levels of the candidates.
	Levels []int `json:"levels,omitempty"`
	// PredictedRows is the total row count of the candidates — the
	// cardinality estimate the join-order prediction uses.
	PredictedRows int64 `json:"predicted_rows"`
	// Safe is false when the pattern has no candidate sub-partition
	// anywhere, which makes the whole query unsafe.
	Safe bool `json:"safe"`
}

// PlanStep is one progressive step of the slice schedule.
type PlanStep struct {
	// Step is the 1-based step number.
	Step int `json:"step"`
	// MaxLevel is the deepest hierarchy level included once the step
	// completes — the slice's safe level.
	MaxLevel int `json:"max_level"`
	// SubParts lists the sub-partitions this step loads.
	SubParts []PlanSubPart `json:"subparts"`
	// PredictedRows is the sum of the step's sub-partition row counts.
	PredictedRows int64 `json:"predicted_rows"`

	// The fields below are filled by Analyze from the actual run.

	// ActualRows is how many rows the step actually read from storage.
	ActualRows int64 `json:"actual_rows,omitempty"`
	// Answers is the cumulative answer count after the step.
	Answers int `json:"answers,omitempty"`
	// NewAnswers is how many answers the step added.
	NewAnswers int `json:"new_answers,omitempty"`
	// Coverage is |answers after this step| / |final| (Result.Coverage).
	Coverage float64 `json:"coverage,omitempty"`
	// CacheHits / CacheMisses count decoded-cache outcomes of the step's
	// sub-partition loads.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Degraded reports unreadable sub-partitions up to this step.
	Degraded bool `json:"degraded,omitempty"`
	// ElapsedMs is the step's wall time (load + evaluate).
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	// Joins holds the step's executed joins in execution order.
	Joins []PlanJoin `json:"joins,omitempty"`
}

// PlanSubPart is one sub-partition of a step, with its stored row count.
type PlanSubPart struct {
	Level int    `json:"level"`
	Prop  string `json:"prop"`
	Rows  int    `json:"rows"`
}

// PlanJoin is one executed binary join (from the step's trace).
type PlanJoin struct {
	LeftRows  int     `json:"left_rows"`
	RightRows int     `json:"right_rows"`
	OutRows   int     `json:"out_rows"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// Explain computes the query's plan without running it: candidate
// sub-partitions per pattern, the slice schedule under the processor's
// strategy, predicted row counts from the layout's metadata, and the
// predicted join order.
func (p *Processor) Explain(q *sparql.Query) (*Plan, error) {
	lay, release := p.store.Pin()
	defer release()
	return p.explain(lay, q)
}

func (p *Processor) explain(lay *hpart.Layout, q *sparql.Query) (*Plan, error) {
	if len(q.Patterns)+len(q.Paths) == 0 {
		return nil, fmt.Errorf("ping: query has no patterns")
	}
	plan := &Plan{
		Query:    q.String(),
		Shape:    sparql.Classify(q).String(),
		Strategy: p.opts.Strategy.String(),
		Epoch:    lay.Epoch(),
	}

	hl := p.querySlices(lay, q)
	hlPaths := p.queryPathSlices(lay, q)

	describe := func(text string, isPath bool, candidates []hpart.SubPartKey) PlanPattern {
		pp := PlanPattern{
			Pattern:    text,
			Path:       isPath,
			Candidates: len(candidates),
			Safe:       len(candidates) > 0,
		}
		levelSeen := make(map[int]bool)
		for _, k := range candidates {
			pp.PredictedRows += int64(lay.SubPartRows[k])
			if !levelSeen[k.Level] {
				levelSeen[k.Level] = true
				pp.Levels = append(pp.Levels, k.Level)
			}
		}
		sort.Ints(pp.Levels)
		return pp
	}
	plan.Safe = true
	varSets := make([][]string, 0, len(q.Patterns)+len(q.Paths))
	cards := make([]int64, 0, len(q.Patterns)+len(q.Paths))
	for i, pat := range q.Patterns {
		pp := describe(pat.String(), false, hl[i])
		plan.Patterns = append(plan.Patterns, pp)
		plan.Safe = plan.Safe && pp.Safe
		varSets = append(varSets, pat.Vars())
		cards = append(cards, pp.PredictedRows)
	}
	for i, pat := range q.Paths {
		pp := describe(pat.String(), true, hlPaths[i])
		plan.Patterns = append(plan.Patterns, pp)
		plan.Safe = plan.Safe && pp.Safe
		varSets = append(varSets, pat.Vars())
		cards = append(cards, pp.PredictedRows)
	}
	if !plan.Safe {
		return plan, nil
	}
	plan.JoinOrder = engine.GreedyJoinOrder(varSets, cards)

	steps, err := p.sliceSchedule(lay, append(append([][]hpart.SubPartKey{}, hl...), hlPaths...))
	if err != nil {
		return nil, err
	}
	dv := lay.DictView()
	for i, st := range steps {
		ps := PlanStep{Step: i + 1, MaxLevel: st.maxLevel}
		for _, k := range st.newKeys {
			rows := lay.SubPartRows[k]
			ps.SubParts = append(ps.SubParts, PlanSubPart{
				Level: k.Level,
				Prop:  dv.TermString(k.Prop),
				Rows:  rows,
			})
			ps.PredictedRows += int64(rows)
		}
		plan.Steps = append(plan.Steps, ps)
	}
	return plan, nil
}

// Analyze explains the query, then actually runs it (PQA, honouring ctx)
// on the same pinned snapshot and annotates every plan step with its
// actual rows, answers, coverage, cache outcomes, join cardinalities, and
// wall time. The run's Result is returned alongside the annotated plan so
// callers can stream or count the answers too.
func (p *Processor) Analyze(ctx context.Context, q *sparql.Query) (*Plan, *Result, error) {
	lay, release := p.store.Pin()
	defer release()
	plan, err := p.explain(lay, q)
	if err != nil {
		return nil, nil, err
	}

	// Capture the run's trace so join cardinalities can be lifted off the
	// engine's "join" spans. Piggyback on a caller trace when one is
	// already attached; otherwise root a private one.
	var span *obs.Span
	if obs.SpanFromContext(ctx) != nil {
		ctx, span = obs.StartSpan(ctx, "analyze")
	} else {
		ctx, span = obs.NewTrace(ctx, "analyze")
	}
	res, err := p.pqaOn(ctx, lay, q)
	span.End()
	if err != nil {
		return nil, nil, err
	}
	plan.annotate(res, span)
	return plan, res, nil
}

// annotate fills a plan's per-step actuals from a completed run on the
// snapshot the plan was explained on, and from its trace. Steps align by
// index.
func (p *Plan) annotate(res *Result, span *obs.Span) {
	p.Analyzed = true
	p.Exact = res.Exact
	if res.Final != nil {
		p.Answers = res.Final.Card()
	}

	var sliceSpans []*obs.Span
	if pqa := span.Find("pqa"); pqa != nil {
		for _, c := range pqa.Children() {
			if c.Name() == "slice" {
				sliceSpans = append(sliceSpans, c)
			}
		}
	}

	for i := range p.Steps {
		sr := res.Steps[i]
		ps := &p.Steps[i]
		ps.ActualRows = sr.RowsLoadedStep
		ps.Answers = sr.Answers.Card()
		ps.NewAnswers = sr.NewAnswers
		ps.Coverage = res.Coverage(i)
		ps.CacheHits = sr.CacheHits
		ps.CacheMisses = sr.CacheMisses
		ps.Degraded = sr.Degraded
		ps.ElapsedMs = float64(sr.Elapsed.Microseconds()) / 1000
		p.TotalMs = float64(sr.ElapsedCum.Microseconds()) / 1000
		if i < len(sliceSpans) {
			for _, j := range sliceSpans[i].Children() {
				if j.Name() != "join" {
					continue
				}
				ps.Joins = append(ps.Joins, PlanJoin{
					LeftRows:  attrInt(j, "left_rows"),
					RightRows: attrInt(j, "right_rows"),
					OutRows:   attrInt(j, "out_rows"),
					ElapsedMs: float64(j.Duration().Microseconds()) / 1000,
				})
			}
		}
	}
}

// attrInt reads a numeric span attribute, tolerating the int/int64 mix
// the instrumentation records.
func attrInt(s *obs.Span, key string) int {
	switch v := s.Attr(key).(type) {
	case int:
		return v
	case int64:
		return int(v)
	case float64:
		return int(v)
	default:
		return 0
	}
}

// WriteJSON renders the plan as an indented JSON document.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// WriteText renders the plan as the human-readable EXPLAIN/ANALYZE
// report printed by pingquery.
func (p *Plan) WriteText(w io.Writer) error {
	var b strings.Builder
	mode := "EXPLAIN"
	if p.Analyzed {
		mode = "ANALYZE"
	}
	fmt.Fprintf(&b, "%s (shape=%s, strategy=%s, epoch=%d)\n", mode, p.Shape, p.Strategy, p.Epoch)
	if p.Fingerprint != "" {
		fmt.Fprintf(&b, "fingerprint: %s\n", p.Fingerprint)
	}
	if !p.Safe {
		b.WriteString("UNSAFE: at least one pattern has no candidate sub-partition; the answer is empty\n")
	}
	b.WriteString("patterns:\n")
	for i, pp := range p.Patterns {
		kind := "bgp"
		if pp.Path {
			kind = "path"
		}
		fmt.Fprintf(&b, "  [%d] %-4s %s\n", i, kind, pp.Pattern)
		if pp.Safe {
			fmt.Fprintf(&b, "       candidates=%d levels=%v predicted_rows=%d\n",
				pp.Candidates, pp.Levels, pp.PredictedRows)
		} else {
			b.WriteString("       UNSAFE (no candidate sub-partitions)\n")
		}
	}
	if len(p.JoinOrder) > 1 {
		parts := make([]string, len(p.JoinOrder))
		for i, j := range p.JoinOrder {
			parts[i] = fmt.Sprintf("[%d]", j)
		}
		fmt.Fprintf(&b, "join order: %s\n", strings.Join(parts, " ⋈ "))
	}
	if len(p.Steps) > 0 {
		fmt.Fprintf(&b, "steps: %d\n", len(p.Steps))
	}
	for _, ps := range p.Steps {
		fmt.Fprintf(&b, "  step %d: safe level %d, %d sub-partitions, %d rows predicted\n",
			ps.Step, ps.MaxLevel, len(ps.SubParts), ps.PredictedRows)
		for _, sp := range ps.SubParts {
			fmt.Fprintf(&b, "    L%d %s (%d rows)\n", sp.Level, sp.Prop, sp.Rows)
		}
		if p.Analyzed {
			flags := ""
			if ps.Degraded {
				flags = " DEGRADED"
			}
			fmt.Fprintf(&b, "    actual: rows=%d answers=%d (+%d) coverage=%.3f cache=%d/%d %.3fms%s\n",
				ps.ActualRows, ps.Answers, ps.NewAnswers, ps.Coverage,
				ps.CacheHits, ps.CacheHits+ps.CacheMisses, ps.ElapsedMs, flags)
			for _, j := range ps.Joins {
				fmt.Fprintf(&b, "    join: %d ⋈ %d → %d rows %.3fms\n",
					j.LeftRows, j.RightRows, j.OutRows, j.ElapsedMs)
			}
		}
	}
	if p.Analyzed {
		exact := "exact"
		if !p.Exact {
			exact = "DEGRADED (sound subset)"
		}
		fmt.Fprintf(&b, "total: %d answers (%s) in %.3fms over %d steps\n",
			p.Answers, exact, p.TotalMs, len(p.Steps))
	}
	_, err := io.WriteString(w, b.String())
	return err
}
