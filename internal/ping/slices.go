package ping

import (
	"context"
	"fmt"
	"sort"

	"ping/internal/dataflow"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/obs/prof"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// scheduledStep is one PQA iteration: the sub-partitions it loads and the
// deepest level included once it completes.
type scheduledStep struct {
	maxLevel int
	newKeys  []hpart.SubPartKey
}

// productCap bounds the literal Algorithm 2 product enumeration; beyond
// this the caller should use a level-cumulative strategy.
const productCap = 1 << 20

// sliceSchedule turns the per-pattern candidate lists into an ordered
// sequence of steps according to the processor's strategy. Every step's
// cumulative sub-partition set is a slice for the query (all patterns
// covered, Def. 4.2); the last step's set is the maximal slice.
func (p *Processor) sliceSchedule(lay *hpart.Layout, hl [][]hpart.SubPartKey) ([]scheduledStep, error) {
	switch p.opts.Strategy {
	case ProductOrder:
		return p.productSchedule(hl)
	default:
		return p.levelSchedule(lay, hl)
	}
}

// maximalSlice is EQA's schedule (Algorithm 3): one step that loads every
// candidate sub-partition of every pattern, deduplicated in pattern order.
func maximalSlice(hl [][]hpart.SubPartKey) []scheduledStep {
	var step scheduledStep
	seen := make(map[hpart.SubPartKey]bool)
	for _, candidates := range hl {
		for _, k := range candidates {
			if !seen[k] {
				seen[k] = true
				step.newKeys = append(step.newKeys, k)
				step.maxLevel = max(step.maxLevel, k.Level)
			}
		}
	}
	return []scheduledStep{step}
}

// levelSchedule visits hierarchy levels one at a time. The order is
// ascending level for LevelCumulative, or sorted by partition size for the
// LargestFirst/SmallestFirst variants. The first steps are merged until
// the cumulative set covers every pattern (before that point the query is
// not safe and no evaluation can run).
func (p *Processor) levelSchedule(lay *hpart.Layout, hl [][]hpart.SubPartKey) ([]scheduledStep, error) {
	// Distinct levels appearing in any candidate list.
	levelSeen := make(map[int]bool)
	for _, candidates := range hl {
		for _, k := range candidates {
			levelSeen[k.Level] = true
		}
	}
	levels := make([]int, 0, len(levelSeen))
	for l := range levelSeen {
		levels = append(levels, l)
	}
	switch p.opts.Strategy {
	case LargestFirst:
		sort.Slice(levels, func(i, j int) bool {
			return lay.LevelTriples[levels[i]-1] > lay.LevelTriples[levels[j]-1]
		})
	case SmallestFirst:
		sort.Slice(levels, func(i, j int) bool {
			return lay.LevelTriples[levels[i]-1] < lay.LevelTriples[levels[j]-1]
		})
	default:
		sort.Ints(levels)
	}

	// Group candidate keys by level, deduplicated across patterns.
	keysByLevel := make(map[int][]hpart.SubPartKey)
	dedup := make(map[hpart.SubPartKey]bool)
	for _, candidates := range hl {
		for _, k := range candidates {
			if !dedup[k] {
				dedup[k] = true
				keysByLevel[k.Level] = append(keysByLevel[k.Level], k)
			}
		}
	}
	// Ablation: loading whole levels instead of per-property files.
	if p.opts.DisableSubPartPruning {
		for l := range keysByLevel {
			var all []hpart.SubPartKey
			for key := range lay.SubPartRows {
				if key.Level == l {
					all = append(all, key)
				}
			}
			sort.Slice(all, func(i, j int) bool { return all[i].Prop < all[j].Prop })
			keysByLevel[l] = all
		}
	}

	// Per-pattern cover tracking: a step sequence becomes valid once all
	// patterns have at least one candidate among included levels.
	patternHasLevel := make([]map[int]bool, len(hl))
	for i, candidates := range hl {
		patternHasLevel[i] = make(map[int]bool)
		for _, k := range candidates {
			patternHasLevel[i][k.Level] = true
		}
	}

	var steps []scheduledStep
	included := make(map[int]bool)
	covered := func() bool {
		for _, has := range patternHasLevel {
			ok := false
			for l := range has {
				if included[l] {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}

	var pending []hpart.SubPartKey
	maxLevel := 0
	for _, l := range levels {
		included[l] = true
		pending = append(pending, keysByLevel[l]...)
		if l > maxLevel {
			maxLevel = l
		}
		if !covered() {
			continue // not yet a slice; keep accumulating
		}
		if len(pending) == 0 {
			continue // nothing new to load; skip the step
		}
		steps = append(steps, scheduledStep{maxLevel: maxLevel, newKeys: pending})
		pending = nil
	}
	return steps, nil
}

// productSchedule enumerates the cartesian product of per-pattern
// sub-partition choices — Algorithm 2 verbatim. Product elements are
// visited in ascending order of their deepest level so answers still
// arrive coarse-to-fine; elements whose union adds no unvisited
// sub-partition are skipped (their EQA result is already contained in the
// accumulator, Algorithm 3 line 2).
func (p *Processor) productSchedule(hl [][]hpart.SubPartKey) ([]scheduledStep, error) {
	total := 1
	for _, candidates := range hl {
		total *= len(candidates)
		if total > productCap {
			return nil, fmt.Errorf("ping: product of %d slices exceeds cap %d; use a level strategy", total, productCap)
		}
	}

	type combo struct {
		maxLevel int
		keys     []hpart.SubPartKey
	}
	combos := make([]combo, 0, total)
	idx := make([]int, len(hl))
	for {
		c := combo{}
		dedup := make(map[hpart.SubPartKey]bool, len(hl))
		for i, j := range idx {
			k := hl[i][j]
			if !dedup[k] {
				dedup[k] = true
				c.keys = append(c.keys, k)
			}
			if k.Level > c.maxLevel {
				c.maxLevel = k.Level
			}
		}
		combos = append(combos, c)
		// Advance the mixed-radix counter.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(hl[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	sort.SliceStable(combos, func(a, b int) bool { return combos[a].maxLevel < combos[b].maxLevel })

	visited := make(map[hpart.SubPartKey]bool)
	var steps []scheduledStep
	for _, c := range combos {
		var fresh []hpart.SubPartKey
		for _, k := range c.keys {
			if !visited[k] {
				visited[k] = true
				fresh = append(fresh, k)
			}
		}
		if len(fresh) == 0 {
			continue
		}
		steps = append(steps, scheduledStep{maxLevel: c.maxLevel, newKeys: fresh})
	}
	return steps, nil
}

// evalState carries the accumulator C of Algorithms 2/3: the loaded
// sub-partitions, the data-access counters, and the semi-naive
// evaluator (engine.Incremental) that holds the accumulated per-pattern
// relations and answers.
type evalState struct {
	p *Processor
	// lay is the layout snapshot pinned for this query; every read and
	// dictionary lookup goes through it so a concurrently published epoch
	// cannot change the data mid-evaluation.
	lay       *hpart.Layout
	q         *sparql.Query
	hlSet     []map[hpart.SubPartKey]bool
	hlPathSet []map[hpart.SubPartKey]bool

	// patDelta/pathDelta hold each pattern's groups that arrived in the
	// current step (reset by load).
	patDelta  [][]engine.PropGroup
	pathDelta [][]engine.PropGroup

	loadedSet map[hpart.SubPartKey]bool
	// loaded lists the accumulator's keys in load order — the durable
	// record a checkpoint needs to rebuild C on resume.
	loaded []hpart.SubPartKey
	// missing accumulates sub-partitions skipped because their reads
	// failed under FailurePolicy Degrade; missingSet guards re-attempts.
	missing    []hpart.SubPartKey
	missingSet map[hpart.SubPartKey]bool

	// inc evaluates every step semi-naively: the first step of a run (and
	// EQA's single step) joins everything loaded so far, later steps only
	// the deltas.
	inc *engine.Incremental

	rowsLoadedStep  int64
	rowsLoadedCum   int64
	cacheHitsStep   int64
	cacheMissesStep int64
	prevAnswers     int
	lastStats       *engine.Stats

	// led is the query's resource ledger (nil-safe), refreshed from the
	// load context; pinnedBytes tracks the resident bytes of every
	// PairBlock the accumulator references, whose running total is the
	// ledger's cache-pinned peak.
	led         *prof.Ledger
	pinnedBytes int64

	// span, when non-nil, is the trace span of the step being evaluated;
	// the engine nests its per-join child spans under it.
	span *obs.Span
}

func newEvalState(p *Processor, lay *hpart.Layout, q *sparql.Query, hl, hlPaths [][]hpart.SubPartKey) (*evalState, error) {
	toSets := func(lists [][]hpart.SubPartKey) []map[hpart.SubPartKey]bool {
		sets := make([]map[hpart.SubPartKey]bool, len(lists))
		for i, candidates := range lists {
			sets[i] = make(map[hpart.SubPartKey]bool, len(candidates))
			for _, k := range candidates {
				sets[i][k] = true
			}
		}
		return sets
	}
	inc, err := engine.NewIncremental(q, lay.DictView(), engine.Options{
		Context: p.ctx,
		Metrics: p.opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &evalState{
		p:          p,
		lay:        lay,
		q:          q,
		hlSet:      toSets(hl),
		hlPathSet:  toSets(hlPaths),
		patDelta:   make([][]engine.PropGroup, len(q.Patterns)),
		pathDelta:  make([][]engine.PropGroup, len(q.Paths)),
		loadedSet:  make(map[hpart.SubPartKey]bool),
		missingSet: make(map[hpart.SubPartKey]bool),
		inc:        inc,
	}, nil
}

// loadResult is the outcome of one sub-partition read issued by load.
type loadResult struct {
	block rdf.PairBlock
	hit   bool
	err   error
}

// load reads the given sub-partitions, skipping ones already in the
// accumulator (Algorithm 3, lines 2-3). Reads fan out over the
// processor's dataflow worker pool (bounded by its executor count) and
// go through the layout's decoded-sub-partition cache; results are
// folded back in input-key order, so group order, row accounting, and
// the `missing` list stay deterministic regardless of worker
// interleaving. Under FailurePolicy Degrade a read that fails after all
// dfs retries marks the sub-partition missing and continues — the
// evaluation then runs on a subset of the slice, which stays sound by
// Lemma 4.4. Context cancellation always aborts, regardless of policy.
func (st *evalState) load(ctx context.Context, keys []hpart.SubPartKey) error {
	st.led = prof.LedgerFrom(ctx)
	st.rowsLoadedStep = 0
	st.cacheHitsStep, st.cacheMissesStep = 0, 0
	for i := range st.patDelta {
		st.patDelta[i] = nil
	}
	for i := range st.pathDelta {
		st.pathDelta[i] = nil
	}

	toLoad := make([]hpart.SubPartKey, 0, len(keys))
	for _, k := range keys {
		if st.loadedSet[k] || st.missingSet[k] {
			continue
		}
		// Mark now so duplicate keys within one batch load once; a failed
		// read under Degrade moves the key to missingSet below.
		st.loadedSet[k] = true
		toLoad = append(toLoad, k)
	}
	if len(toLoad) == 0 {
		return nil
	}

	results := dataflow.Map(
		dataflow.Parallelize(st.p.ctx, toLoad, 0),
		func(k hpart.SubPartKey) loadResult {
			block, hit, err := st.lay.ReadSubPartitionCached(ctx, k)
			return loadResult{block: block, hit: hit, err: err}
		}).Collect()
	// A cancellation mid-stage leaves unprocessed partitions behind;
	// abort rather than fold in a partial batch.
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(results) != len(toLoad) {
		return context.Canceled
	}

	for i, r := range results {
		k := toLoad[i]
		if r.err != nil {
			delete(st.loadedSet, k)
			if st.p.opts.FailurePolicy == Degrade {
				st.missingSet[k] = true
				st.missing = append(st.missing, k)
				continue
			}
			return r.err
		}
		if r.hit {
			st.cacheHitsStep++
		} else {
			st.cacheMissesStep++
			st.led.AddBytesDecoded(int64(r.block.Bytes()))
		}
		st.loaded = append(st.loaded, k)
		st.rowsLoadedStep += int64(r.block.Len())
		st.pinnedBytes += int64(r.block.Bytes())
		st.fold(k, r.block)
	}
	st.rowsLoadedCum += st.rowsLoadedStep
	st.led.AddRowsLoaded(st.rowsLoadedStep)
	st.led.ObserveCacheBytesPinned(st.pinnedBytes)
	st.p.met.cacheHits.Add(st.cacheHitsStep)
	st.p.met.cacheMisses.Add(st.cacheMissesStep)
	return nil
}

// fold routes one loaded sub-partition into the current deltas of every
// pattern whose HL(t) contains it.
func (st *evalState) fold(k hpart.SubPartKey, block rdf.PairBlock) {
	g := engine.PropGroup{Prop: k.Prop, Rows: block}
	for i, set := range st.hlSet {
		if set[k] {
			st.patDelta[i] = append(st.patDelta[i], g)
		}
	}
	for i, set := range st.hlPathSet {
		if set[k] {
			st.pathDelta[i] = append(st.pathDelta[i], g)
		}
	}
}

// evaluate runs the query on the accumulated slices: each pattern sees
// exactly the loaded sub-partitions belonging to its HL(t). Only the
// current deltas are joined (semi-naive, Lemma 4.3) and unioned with the
// previous answers, so the result is the distinct answer set on the whole
// accumulator, and progressive accumulation is a set union, matching the
// answer-counting semantics of the paper's coverage metric.
func (st *evalState) evaluate() (*engine.Relation, error) {
	rel, stats, err := st.inc.Step(st.patDelta, st.pathDelta, st.span)
	if err != nil {
		return nil, err
	}
	st.lastStats = stats
	st.led.ObservePeakRelationRows(stats.PeakRows)
	return rel, nil
}
