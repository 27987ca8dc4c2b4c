package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"ping/internal/hpart"
)

// env is what every run of one invocation shares.
type env struct {
	root   string // repository root
	outDir string // benchmark/out: binaries, temp stores, traces
	bin    string // the pingd built from this checkout
	cat    *catalogue
	// scale multiplies every workload's data size; 1 outside tests.
	scale float64
	// setups is how many times set-up is repeated for its median.
	setups int
	// replay caps the queries of the traced run's in-process replay.
	replay int
	// updateGolden rewrites the golden cardinalities instead of
	// comparing against them.
	updateGolden bool
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	// Notes are printed under the table: failures seen, decomposition
	// verdicts, spans reported missing.
	Notes []string `json:"notes,omitempty"`

	// What the workload's precondition check reads; section is the length
	// of the untraced measured section in seconds.
	section         float64
	touched         int
	hitRatio        float64
	medianSteps     int
	epochs          int
	updatesRejected int
	resumedShare    float64
	genLagP90       float64
}

// stage is a store on disk with a pingd serving it.
type stage struct {
	ds    *dataset
	dir   string
	lay   *hpart.Layout
	srv   *server
	setup time.Duration
	// The parts of setup, for the per-layer report.
	partition, warmup time.Duration
	closed            bool
}

// close stops pingd and removes the store; calling it again is a no-op.
func (st *stage) close() {
	if st.closed {
		return
	}
	st.closed = true
	if st.srv != nil {
		st.srv.stop()
	}
	os.RemoveAll(st.dir)
}

// loadConns is the load generator's connection cap: never more than the
// machine has processors, and never more than two.
func loadConns() int { return min(2, runtime.NumCPU()) }

// asLoadGenerator runs fn on a single processor, so the generator does
// not compete with the server it measures for more than one core.
func asLoadGenerator(fn func()) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// prepare generates the seed's data, partitions it into a fresh store,
// starts pingd on it and replays the mix once as warm-up. mix may be nil
// on the first call of a run; it is then computed (untimed) by the
// oracle between partitioning and launch.
func (e *env) prepare(ctx context.Context, sp spec, seed int64, mix *[]query, touched *int, extra ...string) (*stage, error) {
	ds, err := generate(sp, e.scale, seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.outDir, "store-")
	if err != nil {
		return nil, err
	}
	st := &stage{ds: ds, dir: dir}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	start := time.Now()
	if st.lay, err = partition(ds.base, dir); err != nil {
		return nil, err
	}
	st.partition = time.Since(start)
	if *mix == nil {
		family := sp.family(ds.schema)
		if *mix, *touched, err = oracle(ds, st.lay, shuffled(family, seed), budgetedTemplates(family, sp.budgetShare), sp.writer); err != nil {
			return nil, err
		}
		if err := e.checkGolden(sp, seed, *mix); err != nil {
			return nil, err
		}
	}
	if st.srv, err = launch(ctx, e.bin, dir, e.outDir, extra...); err != nil {
		return nil, err
	}
	start = time.Now()
	var warm []outcome
	asLoadGenerator(func() {
		c := newClient(st.srv.base, loadConns())
		defer c.close()
		warm = closedLoop(ctx, c, *mix, loadConns(), 0, 1, 0)
	})
	st.warmup = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, o := range warm {
		if o.fail != "" {
			return nil, fmt.Errorf("warm-up: %q: %s\npingd log:\n%s", (*mix)[o.qi].text, o.fail, st.srv.log())
		}
	}
	st.setup = ds.genTime + st.partition + st.srv.ready + st.warmup
	ok = true
	return st, nil
}

// measured is the client-side record of one measured section.
type measured struct {
	outs   []outcome
	ups    []update
	lag    []time.Duration
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	hits   float64
	misses float64
	shed   float64
	epochs int
}

// drive runs the workload's traffic against the stage for dur and reads
// the server's process and cache counters around it.
func drive(ctx context.Context, sp spec, st *stage, mix []query, dur time.Duration, seed int64, bindingsEvery int) (*measured, error) {
	before, err := st.srv.counters()
	if err != nil {
		return nil, err
	}
	cpu0, _, err := st.srv.procTimes()
	if err != nil {
		return nil, err
	}
	m := &measured{}
	asLoadGenerator(func() {
		c := newClient(st.srv.base, loadConns())
		defer c.close()
		start := time.Now()
		switch {
		case sp.clients == 0:
			m.outs, m.lag = openLoop(ctx, c, mix, loadConns(), sp.rate, dur, seed)
		case sp.writer:
			done := make(chan struct{})
			go func() {
				defer close(done)
				m.ups = writeLoop(ctx, c, st.ds, dur)
			}()
			m.outs = closedLoop(ctx, c, mix, sp.clients, dur, 0, bindingsEvery)
			<-done
		default:
			m.outs = closedLoop(ctx, c, mix, min(sp.clients, loadConns()), dur, 0, bindingsEvery)
		}
		m.wall = time.Since(start)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, rss, err := st.srv.procTimes()
	if err != nil {
		return nil, err
	}
	after, err := st.srv.counters()
	if err != nil {
		return nil, err
	}
	stats, err := st.srv.stats()
	if err != nil {
		return nil, err
	}
	m.cpu, m.rssMB = cpu1-cpu0, rss
	m.hits = after["ping_subparts_cache_hits_total"] - before["ping_subparts_cache_hits_total"]
	m.misses = after["ping_subparts_cache_misses_total"] - before["ping_subparts_cache_misses_total"]
	m.shed = after["pingd_rejected_total"] - before["pingd_rejected_total"]
	m.epochs = stats.Epoch
	return m, nil
}

// A workload without a writer posts held-out batches one after the other
// once its reads are measured: the update path of an idle server, so
// update_ms_* exists on every workload. It posts for updateProbeTime and
// at least updateProbeBatches: ten batches of 300 ms each are all the
// driver's time allows on deep-miss, and where a batch costs 50 ms the
// p90 of ten is the second slowest of them, of forty the fourth.
const (
	updateProbeBatches = 10
	updateProbeTime    = 2 * time.Second
)

// endToEnd runs one workload with tracing off and reports the
// end-to-end metrics.
func (e *env) endToEnd(ctx context.Context, sp spec, seed int64, seconds float64) (*result, error) {
	var (
		mix     []query
		touched int
		setups  []float64
		st      *stage
	)
	for i := 0; i < e.setups; i++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = e.prepare(ctx, sp, seed, &mix, &touched); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
	}
	defer st.close()
	// The bytes of every file of the store, dictionary and indexes
	// included, as partitioning left them. The manifest is left out: it
	// numbers blocks in the order a Go map was walked, so its size
	// differs by a few digits from run to run.
	storeBytes := st.lay.FS().Usage().PhysicalBytes
	m, err := drive(ctx, sp, st, mix, time.Duration(seconds*float64(time.Second)), seed, 0)
	if err != nil {
		return nil, err
	}
	ups := m.ups
	if !sp.writer {
		asLoadGenerator(func() {
			c := newClient(st.srv.base, 1)
			defer c.close()
			var start time.Time
			for i, b := range st.ds.updateBatches() {
				if i > updateProbeBatches && time.Since(start) > updateProbeTime {
					break
				}
				// The first batch makes pingd build its maintainer, which is
				// the update path's own warm-up and is not timed.
				if u := c.postUpdate(ctx, st.ds.ntriples(b)); i > 0 || !u.ok {
					ups = append(ups, u)
				}
				if i == 0 {
					start = time.Now()
				}
			}
		})
	}

	r := &result{Workload: sp.name, Seed: seed, Seconds: seconds, Metrics: map[string]float64{}, section: seconds, touched: touched}
	r.Metrics["setup_s"] = median(setups)
	r.Metrics["store_bytes_per_triple"] = float64(storeBytes) / float64(len(st.ds.base.Triples))
	r.readSide(mix, m)
	r.writeSide(ups)
	if r.Failed > 0 {
		r.Notes = append(r.Notes, "pingd log:\n"+st.srv.log())
	}
	return r, nil
}

// readSide fills the metrics the lineages give.
func (r *result) readSide(mix []query, m *measured) {
	var ttfa, final, cov []float64
	var steps []int
	late, resumed := 0, 0
	for _, o := range m.outs {
		r.Attempted++
		if o.segments > 1 {
			resumed++
		}
		if o.fail != "" {
			r.Failed++
			late++
			if len(r.Notes) < 5 {
				r.Notes = append(r.Notes, fmt.Sprintf("failed: %s: %q", o.fail, mix[o.qi].text))
			}
			continue
		}
		ttfa = append(ttfa, ms(o.ttfa))
		final = append(final, ms(o.final))
		cov = append(cov, o.covAUC)
		steps = append(steps, o.steps)
		if ms(o.final) > lateLimitMS {
			late++
		}
	}
	r.Samples = len(final)
	if len(final) == 0 {
		return
	}
	sort.Float64s(ttfa)
	sort.Float64s(final)
	sort.Ints(steps)
	r.Metrics["ttfa_ms_p50"] = quantile(ttfa, 0.5)
	r.Metrics["ttfa_ms_p90"] = quantile(ttfa, 0.9)
	r.Metrics["final_ms_p50"] = quantile(final, 0.5)
	r.Metrics["final_ms_p90"] = quantile(final, 0.9)
	r.Metrics["cov_auc"] = mean(cov)
	r.Metrics["throughput_qps"] = float64(len(final)) / m.wall.Seconds()
	r.Metrics["cpu_ms_per_query"] = ms(m.cpu) / float64(len(final))
	r.Metrics["rss_peak_mb"] = m.rssMB
	r.Metrics["ok_ratio"] = float64(len(final)) / float64(r.Attempted)
	r.Metrics["ontime_ratio"] = 1 - float64(late)/float64(r.Attempted)
	r.medianSteps = steps[len(steps)/2]
	r.resumedShare = float64(resumed) / float64(r.Attempted)
	if m.hits+m.misses > 0 {
		r.hitRatio = m.hits / (m.hits + m.misses)
	}
	r.epochs = m.epochs
	if len(m.lag) > 0 {
		r.genLagP90 = quantile(sortedCopy(msAll(m.lag)), 0.9)
	}
}

// writeSide fills update_ms_*; a rejected batch counts as attempted and
// failed like a failed lineage.
func (r *result) writeSide(ups []update) {
	var lat []float64
	for _, u := range ups {
		r.Attempted++
		if !u.ok {
			r.Failed++
			r.updatesRejected++
			continue
		}
		lat = append(lat, ms(u.latency))
	}
	if len(lat) == 0 {
		return
	}
	sort.Float64s(lat)
	r.Metrics["update_ms_p50"] = quantile(lat, 0.5)
	r.Metrics["update_ms_p90"] = quantile(lat, 0.9)
}
