package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ping/internal/columnar"
	"ping/internal/cursor"
	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/obs/prof"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// This file holds every call the traced run makes into the program's
// packages. It times public functions only, from here: spans inside the
// program are a later change.

// replayQueries caps the in-process replay outside tests.
const replayQueries = 36

// maxDecodedTerms caps the dictionary decodes timed per query.
const maxDecodedTerms = 2000

// replay is the in-process half of the traced run.
type replay struct {
	tr   *tracer
	fs   *dfs.FS
	lay  *hpart.Layout
	proc *ping.Processor
	dfc  *dataflow.Context
	reg  *obs.Registry
	// per collects one value per replayed query under each metric name.
	per   map[string][]float64
	notes []string
	// live is the heap in use after settle's last collection.
	live uint64
	// cacheCap is the capacity of the replay's sub-partition LRU.
	cacheCap int
}

// replayed is what the replay knows about one query.
type replayed struct {
	q     *sparql.Query
	text  string
	root  int                  // the lineage's root span
	hl    [][]hpart.SubPartKey // Processor.QuerySlices: candidates per pattern
	steps [][]hpart.SubPartKey // NewSubParts of every step of a full run
	final int
	pqa   time.Duration
}

func (rp *replay) add(name string, v float64) { rp.per[name] = append(rp.per[name], v) }

// subset picks at most n queries to replay: every k-th of the mix in
// text order, so the choice does not depend on the seed's replay order.
func subset(mix []query, n int) []string {
	texts := make([]string, len(mix))
	for i, q := range mix {
		texts[i] = q.text
	}
	sort.Strings(texts)
	return every((len(texts)+n-1)/n, texts)
}

// openReplay reopens an on-disk store the way pingd does and builds a
// single-worker processor with a private registry on it.
func openReplay(dir string, tr *tracer) (*replay, time.Duration, error) {
	start := time.Now()
	fs, err := dfs.OpenOnDisk(dir)
	if err != nil {
		return nil, 0, err
	}
	lay, err := hpart.Load(fs, nil)
	if err != nil {
		return nil, 0, err
	}
	load := time.Since(start)
	reg := obs.NewRegistry()
	dfc := dataflow.NewContext(1)
	dfc.SetMetricsRegistry(reg)
	fs.SetMetrics(reg)
	rp := &replay{tr: tr, fs: fs, lay: lay, dfc: dfc, reg: reg, per: map[string][]float64{}}
	rp.proc = ping.NewProcessor(lay, ping.Options{Context: dfc, Metrics: reg})
	return rp, load, nil
}

// run replays the queries pass by pass. Every pass makes the same
// sub-partition accesses in the same order, so each starts from the
// cache state the workload's own cyclic replay would have left: all
// hits where the mix fits the LRU, evictions where it does not.
func (rp *replay) run(ctx context.Context, texts []string, mixTouched int) error {
	// A collection that happens to start inside a 5 ms span doubles it.
	// The replay therefore runs with the collector off and collects
	// between spans (see settle): its times are those of the code alone,
	// and what that code allocates is reported as a count of its own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	qs := make([]*replayed, len(texts))
	touched := make(map[hpart.SubPartKey]bool)
	for i, text := range texts {
		rq := &replayed{text: text, root: rp.tr.begin("lineage", 0, i+1)}
		qs[i] = rq
		var err error
		rp.add("sparql.parse_us", us(rp.tr.time("sparql.parse", rq.root, i+1, func() { rq.q, err = sparql.Parse(text) })))
		if err != nil {
			return err
		}
		rp.add("ping.plan_us", us(rp.tr.time("ping.plan", rq.root, i+1, func() { rq.hl = rp.proc.QuerySlices(rq.q) })))
		for _, keys := range rq.hl {
			for _, k := range keys {
				touched[k] = true
			}
		}
	}
	// The replay runs a subset of the mix. Where the whole mix overflows
	// pingd's LRU, the subset gets an LRU that holds the same share of
	// its sub-partitions as pingd's holds of the mix's, so that the
	// replay's hit ratio is the served one's and not that of a small mix
	// in a big cache.
	rp.cacheCap = cacheEntries
	if mixTouched > cacheEntries {
		rp.cacheCap = max(1, cacheEntries*len(touched)/mixTouched)
	}
	rp.resetCache()
	// Warm-up pass: a full progressive run that records the schedule
	// every later pass follows.
	for _, rq := range qs {
		err := rp.proc.PQAStepsCtx(ctx, rq.q, func(s ping.StepResult) bool {
			rq.steps = append(rq.steps, s.NewSubParts)
			rq.final = s.Answers.Card()
			return true
		})
		if err != nil {
			return fmt.Errorf("replay warm-up %q: %w", rq.text, err)
		}
	}
	for _, pass := range []struct {
		name string
		fn   func(context.Context, *replayed, int) error
	}{
		{"progressive run", rp.progressive},
		{"hand-made pipeline", rp.pipeline},
		{"resumable run", rp.resumable},
		{"EQA", rp.exact},
		{"cold path", rp.coldPath},
	} {
		for i, rq := range qs {
			rp.settle()
			if err := pass.fn(ctx, rq, i+1); err != nil {
				return fmt.Errorf("replay, %s of %q: %w", pass.name, rq.text, err)
			}
		}
	}
	for _, rq := range qs {
		rp.tr.end(rq.root)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// resetCache empties the layout's sub-partition LRU.
func (rp *replay) resetCache() {
	rp.lay.DisableSubPartCache()
	rp.lay.EnableSubPartCache(rp.cacheCap)
}

// settle collects garbage between two timed sections, once enough has
// piled up since the last collection to be worth the pause.
func (rp *replay) settle() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc < rp.live+(128<<20) {
		return
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	rp.live = m.HeapAlloc
}

// progressive times Processor.PQAStepsCtx in the workload's cache regime
// and takes the counts the run itself reports.
func (rp *replay) progressive(ctx context.Context, rq *replayed, lineage int) error {
	led := prof.NewLedger()
	lctx := prof.WithLedger(ctx, led)
	tasks0 := rp.reg.Counter("dataflow_tasks_total", nil).Value()
	shuffled0 := rp.reg.Counter("dataflow_rows_shuffled_total", nil).Value()
	var (
		hits, misses, rows int64
		subparts, final    int
		err                error
	)
	rq.pqa = rp.tr.time("ping.pqa", rq.root, lineage, func() {
		err = rp.proc.PQAStepsCtx(lctx, rq.q, func(s ping.StepResult) bool {
			hits += s.CacheHits
			misses += s.CacheMisses
			rows = s.RowsLoadedCum
			subparts += len(s.NewSubParts)
			final = s.Answers.Card()
			return true
		})
	})
	if err != nil {
		return err
	}
	if final != rq.final {
		return fmt.Errorf("progressive run gave %d answers, the warm-up run %d", final, rq.final)
	}
	snap := led.Snapshot()
	rp.add("ping.pqa_ms", ms(rq.pqa))
	rp.add("hits", float64(hits))
	rp.add("misses", float64(misses))
	rp.add("hpart.subparts_per_query", float64(subparts))
	rp.add("hpart.rows_loaded_per_query", float64(rows))
	rp.add("hpart.rows_per_answer", float64(rows)/float64(final))
	rp.add("dfs.bytes_per_query", float64(snap.StorageBytesRead))
	rp.add("dataflow.task_ms", float64(snap.TaskNanos)/1e6)
	rp.add("engine.peak_rows", float64(snap.PeakRelationRows))
	rp.add("dataflow.tasks_per_query", float64(rp.reg.Counter("dataflow_tasks_total", nil).Value()-tasks0))
	rp.add("dataflow.shuffle_rows_per_query", float64(rp.reg.Counter("dataflow_rows_shuffled_total", nil).Value()-shuffled0))
	return nil
}

// pipeline redoes the progressive run by hand, step by step, so that
// loading and joining get a span each: Layout.ReadSubPartitionCached
// over the step's new sub-partitions, then Incremental.Step fed the
// groups those sub-partitions contribute to each pattern.
func (rp *replay) pipeline(ctx context.Context, rq *replayed, lineage int) error {
	sets := make([]map[hpart.SubPartKey]bool, len(rq.hl))
	for i, keys := range rq.hl {
		sets[i] = make(map[hpart.SubPartKey]bool, len(keys))
		for _, k := range keys {
			sets[i][k] = true
		}
	}
	inc, err := engine.NewIncremental(rq.q, rp.lay.DictView(), engine.Options{Context: rp.dfc, Metrics: rp.reg})
	if err != nil {
		return err
	}
	parent := rp.tr.begin("pipeline", rq.root, lineage)
	defer rp.tr.end(parent)
	var load, step time.Duration
	var answers *engine.Relation
	for _, keys := range rq.steps {
		deltas := make([][]engine.PropGroup, len(rq.hl))
		id := rp.tr.begin("hpart.load", parent, lineage)
		for _, k := range keys {
			block, _, err := rp.lay.ReadSubPartitionCached(ctx, k)
			if err != nil {
				return err
			}
			for i, set := range sets {
				if set[k] {
					deltas[i] = append(deltas[i], engine.PropGroup{Prop: k.Prop, Rows: block})
				}
			}
		}
		load += rp.tr.end(id)
		step += rp.tr.time("engine.step", parent, lineage, func() { answers, _, err = inc.Step(deltas, nil, nil) })
		if err != nil {
			return err
		}
	}
	if answers.Card() != rq.final {
		return fmt.Errorf("hand-made pipeline gave %d answers, PQA %d", answers.Card(), rq.final)
	}
	rp.add("hpart.load_ms", ms(load))
	rp.add("engine.step_ms", ms(step))
	return nil
}

// resumable times the entry point pingd calls, Processor.PQARunOn with a
// checkpoint per step, and encodes the checkpoint a client pausing after
// step two would leave behind.
func (rp *replay) resumable(ctx context.Context, rq *replayed, lineage int) error {
	var (
		cp  *ping.Checkpoint
		st  *ping.RunStatus
		err error
	)
	run := rp.tr.time("ping.run", rq.root, lineage, func() {
		st, err = rp.proc.PQARunOn(ctx, rp.lay, rq.q, ping.Budget{}, func(s ping.StepResult, c *ping.Checkpoint) bool {
			if s.Step <= 2 {
				cp = c
			}
			return true
		})
	})
	if err != nil {
		return err
	}
	if !st.Done {
		return fmt.Errorf("unbudgeted run stopped: %s", st.Reason)
	}
	rp.add("ping.run_ms", ms(run))
	rp.add("ping.checkpoint_ms", ms(run-rq.pqa))
	var rec []byte
	enc := rp.tr.time("cursor.encode", rq.root, lineage, func() { rec = cursor.EncodeRecord(&cursor.Record{Checkpoint: *cp}) })
	rp.add("cursor.encode_ms", ms(enc))
	rp.add("cursor.record_bytes", float64(len(rec)))
	return nil
}

// exact times Processor.EQA; its ratio to ping.pqa_ms is the price of
// answering progressively.
func (rp *replay) exact(_ context.Context, rq *replayed, lineage int) error {
	var (
		rel *engine.Relation
		err error
	)
	d := rp.tr.time("ping.eqa", rq.root, lineage, func() { rel, _, err = rp.proc.EQA(rq.q) })
	if err != nil {
		return err
	}
	if rel.Card() != rq.final {
		return fmt.Errorf("EQA gave %d answers, PQA %d", rel.Card(), rq.final)
	}
	rp.add("ping.eqa_ms", ms(d))
	return nil
}

// coldPath times what a cache miss costs, piece by piece, over the
// distinct sub-partitions of the query; then the engine's pieces over
// the full slices; then a cold and a warm progressive run, whose
// difference must agree with the pieces.
func (rp *replay) coldPath(ctx context.Context, rq *replayed, lineage int) error {
	parent := rp.tr.begin("cold", rq.root, lineage)
	defer rp.tr.end(parent)
	var (
		read, dfsRead, decode, pack, unpack time.Duration
		fileBytes, blockBytes, pairs        int64
		blocks                              = make(map[hpart.SubPartKey]rdf.PairBlock)
	)
	for _, keys := range rq.steps {
		for _, k := range keys {
			var (
				rows []rdf.SOPair
				err  error
			)
			read += rp.tr.time("hpart.read", parent, lineage, func() { rows, err = rp.lay.ReadSubPartitionCtx(ctx, k) })
			if err != nil {
				return err
			}
			// The file behind the key, as Layout names it; a path that does
			// not resolve is reported, never guessed.
			path := dfs.GenPath(fmt.Sprintf("levels/L%02d/p%d.pcol", k.Level, k.Prop), rp.lay.Generation(k))
			if _, err := rp.fs.Stat(path); err != nil {
				rp.notes = append(rp.notes, fmt.Sprintf("span dfs.read missing for %s: %v", k, err))
			} else {
				var data []byte
				dfsRead += rp.tr.time("dfs.read", parent, lineage, func() { data, err = rp.fs.ReadFileCtx(ctx, path) })
				if err != nil {
					return err
				}
				fileBytes += int64(len(data))
				decode += rp.tr.time("columnar.decode", parent, lineage, func() { _, err = columnar.DecodeColumns(data) })
				if err != nil {
					return err
				}
			}
			var block rdf.PairBlock
			pack += rp.tr.time("rdf.pack", parent, lineage, func() { block = rdf.PackPairs(rows) })
			n := 0
			unpack += rp.tr.time("rdf.unpack", parent, lineage, func() { block.ForEach(func(rdf.SOPair) { n++ }) })
			blocks[k] = block
			blockBytes += int64(block.Bytes())
			pairs += int64(n)
		}
	}
	rp.add("hpart.read_ms", ms(read))
	rp.add("rdf.pack_ms", ms(pack))
	rp.add("rdf.unpack_ms", ms(unpack))
	rp.add("block_bytes", float64(blockBytes))
	rp.add("pairs", float64(pairs))
	if fileBytes > 0 {
		rp.add("dfs.read_ms", ms(dfsRead))
		rp.add("columnar.decode_ms", ms(decode))
		rp.add("file_bytes", float64(fileBytes))
	}

	// The engine over the query's maximal slice, as EQA would feed it.
	dict := rp.lay.DictView()
	inputs := make([]engine.PatternInput, len(rq.q.Patterns))
	for i, keys := range rq.hl {
		inputs[i].Pattern = rq.q.Patterns[i]
		for _, k := range keys {
			if b, ok := blocks[k]; ok {
				inputs[i].Groups = append(inputs[i].Groups, engine.PropGroup{Prop: k.Prop, Rows: b})
			}
		}
	}
	var build time.Duration
	for _, in := range inputs {
		var err error
		build += rp.tr.time("engine.build", parent, lineage, func() { _, err = engine.BuildRelation(in, dict) })
		if err != nil {
			return err
		}
	}
	var (
		rel    *engine.Relation
		err    error
		m0, m1 runtime.MemStats
	)
	rp.settle()
	runtime.ReadMemStats(&m0)
	eval := rp.tr.time("engine.eval", parent, lineage, func() {
		rel, _, err = engine.Evaluate(rq.q, inputs, dict, engine.Options{Context: rp.dfc, Metrics: rp.reg})
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	var distinct *engine.Relation
	dist := rp.tr.time("engine.distinct", parent, lineage, func() { distinct = rel.Distinct() })
	if distinct.Card() != rq.final {
		return fmt.Errorf("engine.Evaluate over the full slices gave %d answers, PQA %d", distinct.Card(), rq.final)
	}
	terms := 0
	dec := rp.tr.time("rdf.dict_decode", parent, lineage, func() {
		for _, row := range distinct.Rows {
			for _, id := range row {
				_ = dict.TermString(id)
				terms++
			}
			if terms >= maxDecodedTerms {
				break
			}
		}
	})
	rp.add("engine.build_ms", ms(build))
	rp.add("engine.eval_ms", ms(eval))
	rp.add("engine.distinct_ms", ms(dist))
	rp.add("engine.allocs_per_query", float64(m1.Mallocs-m0.Mallocs))
	rp.add("engine.alloc_mb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	rp.add("rdf.dict_decode_us_per_term", us(dec)/float64(terms))

	// Cold against warm: empty the cache, run, run again.
	rp.resetCache()
	var cold, warm time.Duration
	for _, d := range []*time.Duration{&cold, &warm} {
		rp.settle()
		*d = rp.tr.time("ping.pqa.coldwarm", parent, lineage, func() {
			err = rp.proc.PQAStepsCtx(ctx, rq.q, func(ping.StepResult) bool { return true })
		})
		if err != nil {
			return err
		}
	}
	rp.add("cold_minus_warm_ms", ms(cold-warm))
	rp.add("read_plus_pack_ms", ms(read+pack))
	return nil
}

// apply times Maintainer.Apply per held-out batch on an epoch store over
// the replay's layout, and reads the store's epoch accounting.
func (rp *replay) apply(batches [][]rdf.Triple) error {
	store := hpart.NewStore(rp.lay)
	m, err := hpart.NewStoreMaintainer(store)
	if err != nil {
		return err
	}
	for _, b := range batches {
		d := rp.tr.time("hpart.apply", 0, 0, func() { err = m.Apply(b, nil) })
		if err != nil {
			return err
		}
		rp.add("hpart.apply_ms", ms(d))
	}
	st := store.Stats()
	rp.add("hpart.epochs", float64(st.Epoch))
	rp.add("hpart.retired_files", float64(st.RetiredFiles))
	return nil
}

// sum of the per-query values under name.
func (rp *replay) sum(name string) float64 {
	var s float64
	for _, v := range rp.per[name] {
		s += v
	}
	return s
}

// metrics condenses the replay into the per-layer metrics it owns:
// per-query medians, ratios of sums, and the decomposition with its
// verdict.
func (rp *replay) metrics(out map[string]float64) (notes []string) {
	for _, name := range []string{
		"sparql.parse_us", "ping.plan_us", "ping.pqa_ms", "ping.eqa_ms", "ping.run_ms", "ping.checkpoint_ms",
		"hpart.load_ms", "hpart.read_ms", "hpart.subparts_per_query", "hpart.rows_loaded_per_query", "hpart.rows_per_answer",
		"hpart.apply_ms", "hpart.epochs", "hpart.retired_files",
		"dfs.read_ms", "dfs.bytes_per_query", "columnar.decode_ms", "rdf.pack_ms", "rdf.unpack_ms", "rdf.dict_decode_us_per_term",
		"engine.build_ms", "engine.step_ms", "engine.eval_ms", "engine.distinct_ms",
		"engine.allocs_per_query", "engine.alloc_mb_per_query", "engine.peak_rows",
		"dataflow.task_ms", "dataflow.tasks_per_query", "dataflow.shuffle_rows_per_query",
		"cursor.encode_ms", "cursor.record_bytes",
	} {
		out[name] = median(rp.per[name])
	}
	out["hpart.cache_hit_ratio"] = rp.sum("hits") / (rp.sum("hits") + rp.sum("misses"))
	out["rdf.block_bytes_per_pair"] = rp.sum("block_bytes") / rp.sum("pairs")
	out["dfs.read_mb_s"] = rp.sum("file_bytes") / 1e6 / (rp.sum("dfs.read_ms") / 1e3)
	out["columnar.decode_mb_s"] = rp.sum("file_bytes") / 1e6 / (rp.sum("columnar.decode_ms") / 1e3)
	// The three add up to ping.pqa_ms by construction; what the check
	// below asks is whether the remainder is small enough to be called
	// schedule, fold and pool overhead.
	pqa := out["ping.pqa_ms"]
	out["ping.residual_ms"] = pqa - out["hpart.load_ms"] - out["engine.step_ms"]
	cw, pieces := median(rp.per["cold_minus_warm_ms"]), median(rp.per["read_plus_pack_ms"])
	verdict := "resolved"
	if math.Abs(out["ping.residual_ms"]) > 0.25*pqa || math.Abs(cw-pieces) > 0.25*math.Max(cw, pieces) {
		verdict = "unresolved"
	}
	notes = append(rp.notes, fmt.Sprintf(
		"decomposition: %s (pqa %.3f ms = load %.3f + step %.3f + residual %.3f; cold-warm %.3f ms vs read+pack %.3f ms)",
		verdict, pqa, out["hpart.load_ms"], out["engine.step_ms"], out["ping.residual_ms"], cw, pieces))
	// The hand-made pipeline's self time is the replay's own routing of
	// groups to patterns, which Processor does inside ping.residual_ms.
	notes = append(notes, fmt.Sprintf("pipeline self time (span minus hpart.load and engine.step children): %.3f ms per query",
		ms(rp.tr.selfTimes()["pipeline"])/float64(len(rp.per["ping.pqa_ms"]))))
	return notes
}
