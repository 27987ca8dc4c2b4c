// Package ping implements the paper's primary contribution: progressive
// query answering (PQA, Algorithm 2) and exact query answering (EQA,
// Algorithm 3) over the hierarchical CS partitioning of package hpart.
//
// For every triple pattern the processor consults the VP/SI/OI indexes to
// compute the pattern's candidate sub-partitions — HL(t) in the paper —
// and only ever touches those. A *slice* is a set of sub-partitions on
// which the query is safe (every pattern has at least one candidate,
// Def. 4.1/4.2). Slices are visited in increasing level order; each step
// loads only the not-yet-visited sub-partitions, re-evaluates the query on
// the accumulated data, and reports the (sound, Lemma 4.4) partial
// answers. The final step evaluates the maximal slice and therefore the
// exact result (Theorem 4.5).
//
// Storage failures are handled per Options.FailurePolicy. Under FailFast
// (default) an unreadable sub-partition aborts the query. Under Degrade
// it is skipped: by Lemma 4.4 any answer computed on a subset of a safe
// slice's sub-partitions is still a sound subset of the exact answer, so
// the run keeps delivering answers and marks its steps Degraded (and the
// final Result not Exact). Context cancellation is threaded through the
// storage reads and the dataflow worker pool, so a stuck replica cannot
// hang a query past its deadline.
package ping

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ping/internal/dataflow"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/obs/prof"
	"ping/internal/rdf"
	"ping/internal/sparql"
	"ping/internal/workload"
)

// SliceStrategy selects the order in which PQA visits hierarchy levels.
type SliceStrategy int

const (
	// LevelCumulative visits levels top-down (1, 2, 3, ...), matching the
	// evaluation figures: one slice per level that contributes data.
	LevelCumulative SliceStrategy = iota
	// ProductOrder enumerates the literal Algorithm 2 cartesian product
	// of per-pattern sub-partition choices.
	ProductOrder
	// LargestFirst visits levels in decreasing partition size (§6.2's
	// "return the largest partition first" future-work variant).
	LargestFirst
	// SmallestFirst visits levels in increasing partition size.
	SmallestFirst
)

func (s SliceStrategy) String() string {
	switch s {
	case LevelCumulative:
		return "level-cumulative"
	case ProductOrder:
		return "product"
	case LargestFirst:
		return "largest-first"
	case SmallestFirst:
		return "smallest-first"
	default:
		return fmt.Sprintf("SliceStrategy(%d)", int(s))
	}
}

// FailurePolicy selects how query answering reacts to a sub-partition
// read that still fails after all dfs retries and replica failover.
type FailurePolicy int

const (
	// FailFast aborts the query on the first unreadable sub-partition.
	FailFast FailurePolicy = iota
	// Degrade skips unreadable sub-partitions and keeps answering: every
	// delivered answer is computed on a subset of the slice's
	// sub-partitions and is therefore still sound (Lemma 4.4). The
	// affected steps are marked Degraded and the final answer not Exact.
	Degrade
)

func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("FailurePolicy(%d)", int(p))
	}
}

// Options configures a Processor.
type Options struct {
	// Context supplies the dataflow executor (nil: single worker).
	Context *dataflow.Context
	// Strategy selects slice ordering; zero value is LevelCumulative.
	Strategy SliceStrategy
	// DisableSubPartPruning loads every property file at a level instead
	// of only the ones the pattern needs. Used by the ablation benchmarks
	// to quantify the benefit of sub-partitioning (§3.6).
	DisableSubPartPruning bool
	// DisableIndexPruning ignores the SI/OI indexes when computing
	// pattern slices (VP alone decides). Used by ablation benchmarks to
	// quantify the benefit of subject/object indexing (§3.7).
	DisableIndexPruning bool
	// UseBloomPruning probes the layout's per-sub-partition Bloom filters
	// (§6.2 extension) to skip candidate sub-partitions that definitely
	// do not contain a pattern's constant subject/object. Requires a
	// layout built with hpart.Options.BuildBlooms (or
	// Layout.BuildBlooms); silently inactive otherwise.
	UseBloomPruning bool
	// DisableJoinReduction ignores the layout's workload-advised join
	// reductions (hpart.JoinReduction) when computing pattern slices.
	// Reductions are precomputed over the full data at advise time, so
	// leaving them on never changes answers — this switch exists for
	// ablation and debugging.
	DisableJoinReduction bool
	// FailurePolicy selects FailFast (zero value) or Degrade handling of
	// unreadable sub-partitions.
	FailurePolicy FailurePolicy
	// DisableSubPartCache skips installing the layout's decoded
	// sub-partition LRU cache.
	DisableSubPartCache bool
	// Metrics is the registry the processor's counters and latency
	// histograms are recorded into (nil: obs.Default).
	Metrics *obs.Registry
}

// Processor answers queries over an epoch store: each query pins the
// latest published snapshot for its whole run, so concurrent
// maintenance batches can publish new epochs without ever being
// observed mid-query (snapshot isolation; Lemma 4.4 holds against the
// pinned epoch's exact answer).
type Processor struct {
	store *hpart.Store
	opts  Options
	ctx   *dataflow.Context
	met   *procMetrics
}

// procMetrics holds the processor's resolved metric handles. Metric
// names are documented in DESIGN.md's observability subsection.
type procMetrics struct {
	// queries and querySeconds are keyed by mode label (pqa or eqa).
	queries         map[string]*obs.Counter
	querySeconds    map[string]*obs.Histogram
	steps           *obs.Counter
	degradedSteps   *obs.Counter
	rowsLoaded      *obs.Counter
	subparts        *obs.Counter
	missingSubparts *obs.Counter
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	resumes         *obs.Counter
	budgetPauses    *obs.Counter
	stepSeconds     *obs.Histogram
	epoch           *obs.Gauge
	inflight        *obs.Gauge
	dictHits        *obs.Counter
	dictMisses      *obs.Counter
	dictEntries     *obs.Gauge
	dictBytes       *obs.Gauge
	dictBuildSecs   *obs.Gauge
	cacheBytes      *obs.Gauge
	cacheRawBytes   *obs.Gauge
}

func newProcMetrics(reg *obs.Registry) *procMetrics {
	if reg == nil {
		reg = obs.Default
	}
	reg.Describe("ping_queries_total", "query runs by mode (pqa or eqa)")
	reg.Describe("ping_steps_total", "progressive slice steps executed")
	reg.Describe("ping_degraded_steps_total", "steps delivered while at least one sub-partition was unreadable")
	reg.Describe("ping_rows_loaded_total", "vertical-partition rows read from storage")
	reg.Describe("ping_subparts_loaded_total", "sub-partitions loaded from storage")
	reg.Describe("ping_missing_subparts_total", "sub-partitions skipped as unreadable under the degrade policy")
	reg.Describe("ping_subparts_cache_hits_total", "sub-partition loads served from the decoded LRU cache")
	reg.Describe("ping_subparts_cache_misses_total", "sub-partition loads that had to read storage")
	reg.Describe("ping_resumed_runs_total", "PQA segments resumed from a checkpoint")
	reg.Describe("ping_budget_paused_total", "PQA segments paused at a budget bound with a resumable checkpoint")
	reg.Describe("ping_step_seconds", "wall-clock duration of one slice step (load + evaluate)")
	reg.Describe("ping_query_seconds", "wall-clock duration of one query run by mode")
	reg.Describe("ping_epoch", "epoch of the most recently pinned layout snapshot")
	reg.Describe("ping_inflight_queries", "queries currently executing (PQA and EQA)")
	reg.Describe("ping_dict_lookups_total", "dictionary term lookups during candidate pruning, by outcome (hit or miss)")
	reg.Describe("ping_dict_entries", "terms in the pinned epoch's dictionary snapshot")
	reg.Describe("ping_dict_resident_bytes", "estimated resident bytes of the shared term dictionary")
	reg.Describe("ping_dict_build_seconds", "time to capture and sign the pinned epoch's dictionary snapshot")
	reg.Describe("ping_subparts_cache_bytes", "resident payload bytes of the decoded sub-partition cache")
	reg.Describe("ping_subparts_cache_raw_bytes", "uncompressed size of the same cached sub-partitions (8 bytes per pair)")
	m := &procMetrics{
		queries:         make(map[string]*obs.Counter),
		querySeconds:    make(map[string]*obs.Histogram),
		steps:           reg.Counter("ping_steps_total", nil),
		degradedSteps:   reg.Counter("ping_degraded_steps_total", nil),
		rowsLoaded:      reg.Counter("ping_rows_loaded_total", nil),
		subparts:        reg.Counter("ping_subparts_loaded_total", nil),
		missingSubparts: reg.Counter("ping_missing_subparts_total", nil),
		cacheHits:       reg.Counter("ping_subparts_cache_hits_total", nil),
		cacheMisses:     reg.Counter("ping_subparts_cache_misses_total", nil),
		resumes:         reg.Counter("ping_resumed_runs_total", nil),
		budgetPauses:    reg.Counter("ping_budget_paused_total", nil),
		stepSeconds:     reg.Histogram("ping_step_seconds", obs.TimeBuckets, nil),
		epoch:           reg.Gauge("ping_epoch", nil),
		inflight:        reg.Gauge("ping_inflight_queries", nil),
		dictHits:        reg.Counter("ping_dict_lookups_total", obs.Labels{"outcome": "hit"}),
		dictMisses:      reg.Counter("ping_dict_lookups_total", obs.Labels{"outcome": "miss"}),
		dictEntries:     reg.Gauge("ping_dict_entries", nil),
		dictBytes:       reg.Gauge("ping_dict_resident_bytes", nil),
		dictBuildSecs:   reg.Gauge("ping_dict_build_seconds", nil),
		cacheBytes:      reg.Gauge("ping_subparts_cache_bytes", nil),
		cacheRawBytes:   reg.Gauge("ping_subparts_cache_raw_bytes", nil),
	}
	for _, mode := range []string{"pqa", "eqa"} {
		m.queries[mode] = reg.Counter("ping_queries_total", obs.Labels{"mode": mode})
		m.querySeconds[mode] = reg.Histogram("ping_query_seconds", obs.TimeBuckets, obs.Labels{"mode": mode})
	}
	return m
}

// NewProcessor creates a processor over a layout, wrapped in an epoch
// store of its own. For concurrent query/update workloads use
// NewProcessorStore with the store the maintainer publishes to.
func NewProcessor(layout *hpart.Layout, opts Options) *Processor {
	return NewProcessorStore(hpart.NewStore(layout), opts)
}

// NewProcessorStore creates a processor over an epoch store: every query
// pins the latest published snapshot at its start and releases it at its
// end, so maintenance batches applied concurrently (via a maintainer
// built with hpart.NewStoreMaintainer on the same store) never affect
// queries already in flight. The decoded sub-partition cache installed
// here is shared by all future epochs (entries are keyed by file
// generation, so snapshots never observe each other's rows).
func NewProcessorStore(store *hpart.Store, opts Options) *Processor {
	ctx := opts.Context
	if ctx == nil {
		ctx = dataflow.NewContext(1)
	}
	if !opts.DisableSubPartCache {
		store.Current().EnableSubPartCache(0)
	}
	return &Processor{store: store, opts: opts, ctx: ctx, met: newProcMetrics(opts.Metrics)}
}

// Layout returns the latest published snapshot.
func (p *Processor) Layout() *hpart.Layout { return p.store.Current() }

// lookupTerm resolves a pattern constant through the epoch's dictionary
// view, counting the outcome into the ping_dict_lookups_total metric.
func (p *Processor) lookupTerm(dv *rdf.DictView, t rdf.Term) rdf.ID {
	id := dv.Lookup(t)
	if id == rdf.NoID {
		p.met.dictMisses.Inc()
	} else {
		p.met.dictHits.Inc()
	}
	return id
}

// setDictGauges refreshes the dictionary and resident-cache gauges from
// the pinned snapshot. Called when a query pins its epoch and again after
// it finishes loading, so /stats reflects the post-run resident set.
func (p *Processor) setDictGauges(lay *hpart.Layout) {
	dv := lay.DictView()
	p.met.dictEntries.Set(float64(dv.Len()))
	p.met.dictBytes.Set(float64(lay.Dict.ResidentBytes()))
	p.met.dictBuildSecs.Set(lay.DictBuildTime().Seconds())
	_, bytes, rawBytes := lay.SubPartCacheStats()
	p.met.cacheBytes.Set(float64(bytes))
	p.met.cacheRawBytes.Set(float64(rawBytes))
}

// PatternSlices computes HL(t) — the candidate sub-partitions of one
// triple pattern (Algorithm 2, line 3): the levels are the intersection
// of the index entries of the pattern's symbols, and the properties are
// either the pattern's constant predicate or, for a variable predicate,
// every property present on those levels.
func (p *Processor) PatternSlices(pat sparql.TriplePattern) []hpart.SubPartKey {
	return p.patternSlices(p.Layout(), pat)
}

func (p *Processor) patternSlices(lay *hpart.Layout, pat sparql.TriplePattern) []hpart.SubPartKey {
	levels := lay.AllLevels()
	dv := lay.DictView()

	var props []rdf.ID
	if pat.P.IsConcrete() {
		id := p.lookupTerm(dv, pat.P)
		if id == rdf.NoID {
			return nil
		}
		levels = levels.Intersect(lay.PropertyLevels(id))
		props = []rdf.ID{id}
	}
	if !p.opts.DisableIndexPruning {
		if pat.S.IsConcrete() {
			id := p.lookupTerm(dv, pat.S)
			if id == rdf.NoID {
				return nil
			}
			levels = levels.Intersect(lay.SubjectLevels(id))
		}
		if pat.O.IsConcrete() {
			id := p.lookupTerm(dv, pat.O)
			if id == rdf.NoID {
				return nil
			}
			levels = levels.Intersect(lay.ObjectLevels(id))
		}
	}
	if levels.Empty() {
		return nil
	}

	var keys []hpart.SubPartKey
	if props == nil {
		// Variable predicate: every property stored on a candidate level.
		for prop, set := range lay.VP {
			common := set.Intersect(levels)
			for _, l := range common.Levels() {
				keys = append(keys, hpart.SubPartKey{Level: l, Prop: prop})
			}
		}
	} else {
		for _, prop := range props {
			for _, l := range levels.Levels() {
				key := hpart.SubPartKey{Level: l, Prop: prop}
				if lay.HasSubPartition(key) {
					keys = append(keys, key)
				}
			}
		}
	}
	keys = p.bloomPrune(lay, pat, keys)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Level != keys[j].Level {
			return keys[i].Level < keys[j].Level
		}
		return keys[i].Prop < keys[j].Prop
	})
	return keys
}

// bloomPrune drops candidate sub-partitions whose membership filters rule
// out the pattern's constant subject/object. Filters have no false
// negatives, so pruning never loses answers.
func (p *Processor) bloomPrune(lay *hpart.Layout, pat sparql.TriplePattern, keys []hpart.SubPartKey) []hpart.SubPartKey {
	if !p.opts.UseBloomPruning || !lay.HasBlooms() {
		return keys
	}
	dv := lay.DictView()
	sConst, oConst := rdf.NoID, rdf.NoID
	if pat.S.IsConcrete() {
		sConst = dv.Lookup(pat.S)
	}
	if pat.O.IsConcrete() {
		oConst = dv.Lookup(pat.O)
	}
	if sConst == rdf.NoID && oConst == rdf.NoID {
		return keys
	}
	kept := keys[:0]
	for _, k := range keys {
		b := lay.Blooms(k)
		if b != nil {
			if sConst != rdf.NoID && !b.Subjects.Contains(uint64(sConst)) {
				continue
			}
			if oConst != rdf.NoID && !b.Objects.Contains(uint64(oConst)) {
				continue
			}
		}
		kept = append(kept, k)
	}
	return kept
}

// QuerySlices returns HL(t) for every plain pattern of q. The query is
// safe on some slice iff every returned list is non-empty.
func (p *Processor) QuerySlices(q *sparql.Query) [][]hpart.SubPartKey {
	return p.querySlices(p.Layout(), q)
}

func (p *Processor) querySlices(lay *hpart.Layout, q *sparql.Query) [][]hpart.SubPartKey {
	out := make([][]hpart.SubPartKey, len(q.Patterns))
	for i, pat := range q.Patterns {
		out[i] = p.patternSlices(lay, pat)
	}
	p.applyJoinReductions(lay, q, out)
	return out
}

// applyJoinReductions drops candidate sub-partitions the layout's
// workload-advised join reductions prove irrelevant: when two patterns
// with concrete predicates share a variable, a pattern-A sub-partition
// whose rows all miss the B-side join-value filter cannot contribute to
// any answer of the conjunction (every answer must satisfy both
// patterns), so it is removed before loading. The reductions were
// computed over the full data of this very snapshot — filter false
// positives only retain sub-partitions — so the surviving candidates
// still contain every answer, and PQA/EQA, EXPLAIN, and safety all go
// through this one hook and stay mutually consistent.
func (p *Processor) applyJoinReductions(lay *hpart.Layout, q *sparql.Query, hl [][]hpart.SubPartKey) {
	if p.opts.DisableJoinReduction || len(lay.JoinReductions()) == 0 || len(q.Patterns) < 2 {
		return
	}
	dv := lay.DictView()
	props := make([]rdf.ID, len(q.Patterns))
	for i, pat := range q.Patterns {
		props[i] = rdf.NoID
		if pat.P.IsConcrete() {
			props[i] = dv.Lookup(pat.P)
		}
	}
	// roles lists the join columns a variable occupies in a pattern.
	roles := func(pat sparql.TriplePattern, v string) []byte {
		var out []byte
		if pat.S.IsVar() && pat.S.Value == v {
			out = append(out, hpart.JoinSubject)
		}
		if pat.O.IsVar() && pat.O.Value == v {
			out = append(out, hpart.JoinObject)
		}
		return out
	}
	for i, patA := range q.Patterns {
		if props[i] == rdf.NoID || len(hl[i]) == 0 {
			continue
		}
		for j, patB := range q.Patterns {
			if j == i || props[j] == rdf.NoID {
				continue
			}
			for _, v := range patA.Vars() {
				for _, ra := range roles(patA, v) {
					for _, rb := range roles(patB, v) {
						key := hpart.JoinKey{PropA: props[i], PropB: props[j], RoleA: ra, RoleB: rb}
						if lay.JoinReductions()[key] == nil {
							continue
						}
						kept := hl[i][:0]
						for _, sk := range hl[i] {
							if !lay.JoinPruned(key, sk) {
								kept = append(kept, sk)
							}
						}
						hl[i] = kept
					}
				}
			}
		}
	}
}

// PathPatternSlices computes the candidate sub-partitions of a property-
// path pattern (§6.2 navigational extension): every level of every
// property the path mentions. Endpoint constants cannot prune levels here
// — a closure may pass through intermediate nodes on any level — so only
// the VP index applies.
func (p *Processor) PathPatternSlices(pat sparql.PathPattern) []hpart.SubPartKey {
	return p.pathPatternSlices(p.Layout(), pat)
}

func (p *Processor) pathPatternSlices(lay *hpart.Layout, pat sparql.PathPattern) []hpart.SubPartKey {
	var keys []hpart.SubPartKey
	seen := make(map[hpart.SubPartKey]bool)
	dv := lay.DictView()
	for _, iri := range pat.Path.IRIs(nil) {
		id := p.lookupTerm(dv, iri)
		if id == rdf.NoID {
			continue
		}
		for _, l := range lay.PropertyLevels(id).Levels() {
			key := hpart.SubPartKey{Level: l, Prop: id}
			if lay.HasSubPartition(key) && !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Level != keys[j].Level {
			return keys[i].Level < keys[j].Level
		}
		return keys[i].Prop < keys[j].Prop
	})
	return keys
}

// QueryPathSlices returns the candidate sub-partitions for every path
// pattern of q.
func (p *Processor) QueryPathSlices(q *sparql.Query) [][]hpart.SubPartKey {
	return p.queryPathSlices(p.Layout(), q)
}

func (p *Processor) queryPathSlices(lay *hpart.Layout, q *sparql.Query) [][]hpart.SubPartKey {
	out := make([][]hpart.SubPartKey, len(q.Paths))
	for i, pat := range q.Paths {
		out[i] = p.pathPatternSlices(lay, pat)
	}
	return out
}

// Safe reports whether the query is safe on at least one slice, i.e.
// whether any answer can exist in the partitioned data (Def. 4.1). For a
// path pattern, safety means at least one of its properties occurs
// somewhere; an alternation only needs one live branch, but a dead
// sequence step or closure base empties the whole pattern, so requiring
// one live property is the weakest sound condition.
func (p *Processor) Safe(q *sparql.Query) bool {
	for _, hl := range p.QuerySlices(q) {
		if len(hl) == 0 {
			return false
		}
	}
	for _, hl := range p.QueryPathSlices(q) {
		if len(hl) == 0 {
			return false
		}
	}
	return len(q.Patterns)+len(q.Paths) > 0
}

// StepResult describes one progressive step (one visited slice).
type StepResult struct {
	// Step is the 1-based slice number.
	Step int
	// MaxLevel is the deepest hierarchy level included so far.
	MaxLevel int
	// NewSubParts lists the sub-partitions loaded by this step.
	NewSubParts []hpart.SubPartKey
	// RowsLoadedStep / RowsLoadedCum count vertical-partition rows read
	// from storage by this step and cumulatively.
	RowsLoadedStep int64
	RowsLoadedCum  int64
	// Answers is the cumulative (distinct) answer relation after this
	// step — a sound subset of the exact result.
	Answers *engine.Relation
	// NewAnswers is how many answers this step added.
	NewAnswers int
	// Elapsed / ElapsedCum time this step and the run so far.
	Elapsed    time.Duration
	ElapsedCum time.Duration
	// CacheHits / CacheMisses count this step's sub-partition loads served
	// from the decoded LRU cache vs read from storage.
	CacheHits   int64
	CacheMisses int64
	// Degraded reports that at least one candidate sub-partition could
	// not be read so far (FailurePolicy Degrade only); the answers remain
	// a sound subset of the exact result (Lemma 4.4).
	Degraded bool
	// MissingSubParts lists the sub-partitions skipped so far
	// (cumulative, in skip order).
	MissingSubParts []hpart.SubPartKey
	// Epoch is the layout snapshot the whole run is pinned to. All steps
	// of one run carry the same epoch: updates published mid-query are
	// never observed.
	Epoch uint64
	// stats are the engine counters of this step's evaluation.
	stats *engine.Stats
}

// Result is a completed PQA run.
type Result struct {
	// Steps holds one entry per visited slice, in visit order.
	Steps []StepResult
	// Final is the exact answer relation (the last step's answers), or an
	// empty relation when the query is unsafe on every slice.
	Final *engine.Relation
	// Exact reports whether Final is the exact answer. It is false only
	// when FailurePolicy Degrade skipped unreadable sub-partitions, in
	// which case Final is a sound subset of the exact answer.
	Exact bool
	// Epoch is the layout snapshot the run was pinned to.
	Epoch uint64
}

// Coverage returns |answers after step i| / |final answers| — the paper's
// coverage metric. Steps are 0-indexed and clamped into [0, len(Steps)-1];
// a zero-step result, a nil Final, or a final answer count of zero all
// yield coverage 1 for every step (nothing to find, or nothing to
// compare against).
func (r *Result) Coverage(step int) float64 {
	if len(r.Steps) == 0 || r.Final == nil || r.Final.Card() == 0 {
		return 1
	}
	if step < 0 {
		step = 0
	}
	if step >= len(r.Steps) {
		step = len(r.Steps) - 1
	}
	return float64(r.Steps[step].Answers.Card()) / float64(r.Final.Card())
}

// ensureQueryFP attaches the query's workload fingerprint to ctx when
// the caller did not supply one, so CPU profile samples of every
// execution path — servers, benchmarks, embedders — attribute to the
// query class without each call site having to fingerprint explicitly.
func ensureQueryFP(ctx context.Context, q *sparql.Query) context.Context {
	if prof.QueryFP(ctx) != "" {
		return ctx
	}
	return prof.WithQueryFP(ctx, workload.Fingerprint(q))
}

// PQA runs progressive query answering to completion and returns every
// step. It is equivalent to PQAStepsCtx with a callback that always
// continues.
func (p *Processor) PQA(q *sparql.Query) (*Result, error) {
	return p.PQACtx(context.Background(), q)
}

// PQACtx is PQA honouring ctx cancellation and deadline.
func (p *Processor) PQACtx(ctx context.Context, q *sparql.Query) (*Result, error) {
	lay, release := p.store.Pin()
	defer release()
	return p.pqaOn(ctx, lay, q)
}

// pqaOn runs PQA to completion on a pinned snapshot.
func (p *Processor) pqaOn(ctx context.Context, lay *hpart.Layout, q *sparql.Query) (*Result, error) {
	res := &Result{Exact: true, Epoch: lay.Epoch()}
	_, err := p.runPQA(ctx, lay, q, runConfig{mode: modePQA}, func(s StepResult, _ *Checkpoint) bool {
		res.Steps = append(res.Steps, s)
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(res.Steps) > 0 {
		last := res.Steps[len(res.Steps)-1]
		res.Final = last.Answers
		res.Exact = !last.Degraded
	} else {
		res.Final = &engine.Relation{Vars: q.Projection()}
	}
	return res, nil
}

// PQAStepsCtx runs progressive query answering, invoking fn after each
// slice. Returning false from fn stops the run early (the user has seen
// enough answers); all delivered answers remain sound by Lemma 4.4.
// Cancelling ctx aborts storage reads (including failover retries) and
// drains the dataflow worker pool, returning ctx.Err(). It is a thin
// wrapper over the resumable core runner (see checkpoint.go) with
// checkpointing off.
func (p *Processor) PQAStepsCtx(ctx context.Context, q *sparql.Query, fn func(StepResult) bool) error {
	// Pin the layout snapshot for the whole run: candidate computation,
	// scheduling, and every file read below see one immutable epoch,
	// regardless of concurrently published updates.
	lay, release := p.store.Pin()
	defer release()
	_, err := p.runPQA(ctx, lay, q, runConfig{mode: modePQA}, func(sr StepResult, _ *Checkpoint) bool {
		return fn(sr)
	})
	return err
}

// ExactResult is the answer of EQAFull plus degradation metadata.
type ExactResult struct {
	// Answers is the result relation.
	Answers *engine.Relation
	// Stats are the engine counters of the evaluation.
	Stats *engine.Stats
	// Exact is false only when FailurePolicy Degrade skipped unreadable
	// sub-partitions; Answers is then a sound subset (Lemma 4.4).
	Exact bool
	// MissingSubParts lists the skipped sub-partitions.
	MissingSubParts []hpart.SubPartKey
	// Epoch is the layout snapshot the evaluation was pinned to.
	Epoch uint64
}

// EQA evaluates the query directly on its maximal slice: each pattern
// loads exactly the sub-partitions its symbols allow, in one shot. This
// is the mode compared against S2RDF and WORQ in §5.6.
func (p *Processor) EQA(q *sparql.Query) (*engine.Relation, *engine.Stats, error) {
	r, err := p.EQAFull(context.Background(), q)
	if err != nil {
		return nil, nil, err
	}
	return r.Answers, r.Stats, nil
}

// EQAFull is EQA honouring ctx and reporting degradation metadata. It is
// a one-step run of the step loop over the maximal slice, under the
// query's pprof labels (query_fp, trace_id, stage=eqa) so profile
// samples attribute to the fingerprint.
func (p *Processor) EQAFull(ctx context.Context, q *sparql.Query) (*ExactResult, error) {
	// Pin one snapshot for candidate computation and evaluation, exactly
	// as PQAStepsCtx does.
	lay, release := p.store.Pin()
	defer release()
	res := &ExactResult{
		Answers: &engine.Relation{Vars: q.Projection()},
		Stats:   &engine.Stats{},
		Exact:   true,
		Epoch:   lay.Epoch(),
	}
	_, err := p.runPQA(ctx, lay, q, runConfig{mode: modeEQA}, func(sr StepResult, _ *Checkpoint) bool {
		res.Answers, res.Stats = sr.Answers, sr.stats
		res.Stats.InputRows = sr.RowsLoadedCum
		res.Exact = !sr.Degraded
		res.MissingSubParts = sr.MissingSubParts
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
