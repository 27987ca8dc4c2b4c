package workload

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"ping/internal/obs"
)

// Options configures a Profiler.
type Options struct {
	// MaxFingerprints bounds how many distinct fingerprints the profiler
	// tracks (<=0: 512). Observations for fingerprints beyond the bound
	// are counted in workload_dropped_total but not aggregated, so a
	// high-cardinality workload cannot grow the store without limit.
	MaxFingerprints int
	// Metrics receives the workload_* series (nil: obs.Default).
	Metrics *obs.Registry
}

const defaultMaxFingerprints = 512

// aggregate is the mutable per-fingerprint state; the profiler's mutex
// guards it.
type aggregate struct {
	canonical   string
	shape       string
	count       int64
	errors      int64
	degraded    int64
	total       time.Duration
	min         time.Duration
	max         time.Duration
	steps       int64
	segments    int64
	toFirst     int64
	firstSeen   int64 // observations that delivered at least one answer
	covAtFirst  float64
	lastCov     []float64
	lastEpoch   uint64
	lastAnswers int

	// Resource totals (sums over observations; the two peak fields are
	// maxima).
	taskSeconds      float64
	rowsLoaded       int64
	bytesDecoded     int64
	storageBytes     int64
	cachePinnedPeak  int64
	dictDecodes      int64
	peakRelationRows int64

	queries *obs.Counter
	seconds *obs.Histogram
	errC    *obs.Counter
	degC    *obs.Counter
}

// Profiler fingerprints and aggregates every observed query. All methods
// are safe for concurrent use.
type Profiler struct {
	mu   sync.Mutex
	byFp map[string]*aggregate
	max  int

	reg     *obs.Registry
	fpGauge *obs.Gauge
	dropped *obs.Counter
}

// NewProfiler returns an empty profiler recording into opts.Metrics.
func NewProfiler(opts Options) *Profiler {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default
	}
	max := opts.MaxFingerprints
	if max <= 0 {
		max = defaultMaxFingerprints
	}
	reg.Describe("workload_queries_total", "queries observed per fingerprint")
	reg.Describe("workload_query_seconds", "query latency per fingerprint")
	reg.Describe("workload_errors_total", "failed queries per fingerprint")
	reg.Describe("workload_degraded_total", "degraded queries per fingerprint")
	reg.Describe("workload_fingerprints", "distinct query fingerprints tracked")
	reg.Describe("workload_dropped_total", "observations dropped because the fingerprint store was full")
	return &Profiler{
		byFp:    make(map[string]*aggregate),
		max:     max,
		reg:     reg,
		fpGauge: reg.Gauge("workload_fingerprints", nil),
		dropped: reg.Counter("workload_dropped_total", nil),
	}
}

// Observe folds one lineage's wide event into the aggregate of its
// fingerprint. A resumed lineage is one event, observed once at
// completion with its latency summed across segments.
func (p *Profiler) Observe(ev obs.WideEvent) {
	fp, latency := ev.Fingerprint, ev.Latency()
	p.mu.Lock()
	agg := p.byFp[fp]
	if agg == nil {
		if len(p.byFp) >= p.max {
			p.mu.Unlock()
			p.dropped.Inc()
			return
		}
		agg = &aggregate{
			canonical: ev.Canonical,
			shape:     ev.Shape,
			min:       latency,
			queries:   p.reg.Counter("workload_queries_total", obs.Labels{"fingerprint": fp, "shape": ev.Shape}),
			seconds:   p.reg.Histogram("workload_query_seconds", obs.TimeBuckets, obs.Labels{"fingerprint": fp}),
			errC:      p.reg.Counter("workload_errors_total", obs.Labels{"fingerprint": fp}),
			degC:      p.reg.Counter("workload_degraded_total", obs.Labels{"fingerprint": fp}),
		}
		p.byFp[fp] = agg
		p.fpGauge.Set(float64(len(p.byFp)))
	}
	agg.count++
	agg.total += latency
	if latency < agg.min {
		agg.min = latency
	}
	if latency > agg.max {
		agg.max = latency
	}
	agg.steps += int64(ev.Steps)
	if ev.Segments > 0 {
		agg.segments += int64(ev.Segments)
	} else {
		agg.segments++
	}
	if ev.StepsToFirstAnswer > 0 {
		agg.firstSeen++
		agg.toFirst += int64(ev.StepsToFirstAnswer)
		agg.covAtFirst += ev.CoverageAtFirst
	}
	if len(ev.Coverage) > 0 {
		agg.lastCov = append([]float64(nil), ev.Coverage...)
	}
	agg.taskSeconds += ev.TaskMs / 1000
	agg.rowsLoaded += ev.RowsLoaded
	agg.bytesDecoded += ev.BytesDecoded
	agg.storageBytes += ev.StorageBytesRead
	if ev.CacheBytesPinned > agg.cachePinnedPeak {
		agg.cachePinnedPeak = ev.CacheBytesPinned
	}
	agg.dictDecodes += ev.DictDecodes
	if ev.PeakRelationRows > agg.peakRelationRows {
		agg.peakRelationRows = ev.PeakRelationRows
	}
	agg.lastEpoch = ev.Epoch
	agg.lastAnswers = ev.Answers
	failed := ev.Error != ""
	if failed {
		agg.errors++
	}
	if ev.Degraded {
		agg.degraded++
	}
	queries, seconds, errC, degC := agg.queries, agg.seconds, agg.errC, agg.degC
	p.mu.Unlock()

	queries.Inc()
	seconds.Observe(latency.Seconds())
	if failed {
		errC.Inc()
	}
	if ev.Degraded {
		degC.Inc()
	}
}

// Dropped returns how many observations were discarded because the
// fingerprint store was full.
func (p *Profiler) Dropped() int64 { return p.dropped.Value() }

// EstimateCost predicts the CPU cost of one more run of this
// fingerprint: the ledger's task seconds per observed run. Zero means
// "no measurement yet" — cost-based admission must admit unknown
// fingerprints.
func (p *Profiler) EstimateCost(fp string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	agg := p.byFp[fp]
	if agg == nil || agg.count == 0 {
		return 0
	}
	return time.Duration(agg.taskSeconds / float64(agg.count) * float64(time.Second))
}

// FingerprintStats is one fingerprint's aggregate, frozen for export.
type FingerprintStats struct {
	Fingerprint string  `json:"fingerprint"`
	Canonical   string  `json:"canonical"`
	Shape       string  `json:"shape"`
	Count       int64   `json:"count"`
	Errors      int64   `json:"errors,omitempty"`
	Degraded    int64   `json:"degraded,omitempty"`
	TotalMs     float64 `json:"total_ms"`
	MinMs       float64 `json:"min_ms"`
	MaxMs       float64 `json:"max_ms"`
	MeanMs      float64 `json:"mean_ms"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	// MeanSteps is the average number of progressive steps per run.
	MeanSteps float64 `json:"mean_steps,omitempty"`
	// MeanSegments is the average number of run segments per lineage
	// (1.0 = never paused; higher = budget-paused or disconnect-resumed).
	MeanSegments float64 `json:"mean_segments,omitempty"`
	// MeanStepsToFirst averages the step that produced the first answer,
	// over the runs that produced any.
	MeanStepsToFirst float64 `json:"mean_steps_to_first,omitempty"`
	// MeanCoverageAtFirst averages the coverage at that step.
	MeanCoverageAtFirst float64 `json:"mean_coverage_at_first,omitempty"`
	// Coverage is the latest run's per-step coverage curve.
	Coverage []float64 `json:"coverage,omitempty"`
	// LastEpoch and LastAnswers describe the latest run.
	LastEpoch   uint64 `json:"last_epoch"`
	LastAnswers int    `json:"last_answers"`
	// Resource attribution (/resources), from the per-query ledger.
	// TaskSeconds is summed dataflow task wall time. The byte/row
	// counters are lineage sums; CacheBytesPinned and PeakRelationRows
	// are the worst single run observed.
	TaskSeconds      float64 `json:"task_seconds,omitempty"`
	RowsLoaded       int64   `json:"rows_loaded,omitempty"`
	BytesDecoded     int64   `json:"bytes_decoded,omitempty"`
	StorageBytesRead int64   `json:"storage_bytes_read,omitempty"`
	CacheBytesPinned int64   `json:"cache_bytes_pinned,omitempty"`
	DictDecodes      int64   `json:"dict_decodes,omitempty"`
	PeakRelationRows int64   `json:"peak_relation_rows,omitempty"`
}

// Snapshot freezes every fingerprint's aggregate, sorted by total
// latency descending — the "what is this server spending its time on"
// ordering of the dashboard and the workload report.
func (p *Profiler) Snapshot() []FingerprintStats {
	p.mu.Lock()
	out := make([]FingerprintStats, 0, len(p.byFp))
	for fp, agg := range p.byFp {
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		st := FingerprintStats{
			Fingerprint: fp,
			Canonical:   agg.canonical,
			Shape:       agg.shape,
			Count:       agg.count,
			Errors:      agg.errors,
			Degraded:    agg.degraded,
			TotalMs:     ms(agg.total),
			MinMs:       ms(agg.min),
			MaxMs:       ms(agg.max),
			P50Ms:       agg.seconds.Quantile(0.5) * 1000,
			P95Ms:       agg.seconds.Quantile(0.95) * 1000,
			P99Ms:       agg.seconds.Quantile(0.99) * 1000,
			Coverage:    append([]float64(nil), agg.lastCov...),
			LastEpoch:   agg.lastEpoch,
			LastAnswers: agg.lastAnswers,

			TaskSeconds:      agg.taskSeconds,
			RowsLoaded:       agg.rowsLoaded,
			BytesDecoded:     agg.bytesDecoded,
			StorageBytesRead: agg.storageBytes,
			CacheBytesPinned: agg.cachePinnedPeak,
			DictDecodes:      agg.dictDecodes,
			PeakRelationRows: agg.peakRelationRows,
		}
		if agg.count > 0 {
			st.MeanMs = st.TotalMs / float64(agg.count)
			st.MeanSteps = float64(agg.steps) / float64(agg.count)
			st.MeanSegments = float64(agg.segments) / float64(agg.count)
		}
		if agg.firstSeen > 0 {
			st.MeanStepsToFirst = float64(agg.toFirst) / float64(agg.firstSeen)
			st.MeanCoverageAtFirst = agg.covAtFirst / float64(agg.firstSeen)
		}
		out = append(out, st)
	}
	p.mu.Unlock()
	// Fully deterministic order: total time desc, then count desc, then
	// fingerprint asc. The count tie-break matters for replayed NDJSON
	// workloads whose recorded latencies collide (often all zero), where
	// the advisor and /workload?top=N must pick the same hot set on every
	// run.
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMs != out[j].TotalMs {
			return out[i].TotalMs > out[j].TotalMs
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Top returns the first n snapshot entries (all of them when n <= 0).
func (p *Profiler) Top(n int) []FingerprintStats {
	snap := p.Snapshot()
	if n > 0 && n < len(snap) {
		snap = snap[:n]
	}
	return snap
}

// TopByCost returns up to n snapshot entries ordered by the ledger's
// task seconds, then total latency and fingerprint for determinism —
// the /resources "top consumers" ordering.
func (p *Profiler) TopByCost(n int) []FingerprintStats {
	snap := p.Snapshot()
	sort.Slice(snap, func(i, j int) bool {
		if snap[i].TaskSeconds != snap[j].TaskSeconds {
			return snap[i].TaskSeconds > snap[j].TaskSeconds
		}
		if snap[i].TotalMs != snap[j].TotalMs {
			return snap[i].TotalMs > snap[j].TotalMs
		}
		return snap[i].Fingerprint < snap[j].Fingerprint
	})
	if n > 0 && n < len(snap) {
		snap = snap[:n]
	}
	return snap
}

// WriteNDJSON writes the snapshot one JSON object per line — the
// persistence format of -workload-out and the input of pingworkload.
func (p *Profiler) WriteNDJSON(w io.Writer) error {
	return WriteNDJSON(w, p.Snapshot())
}

// WriteNDJSON writes fingerprint stats one JSON object per line.
func WriteNDJSON(w io.Writer, stats []FingerprintStats) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, st := range stats {
		if err := enc.Encode(st); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses a snapshot written by WriteNDJSON. Blank lines are
// skipped; any other malformed line is an error. A line carries the
// canonical query text once, so the wide-event line bound covers it.
func ReadNDJSON(r io.Reader) ([]FingerprintStats, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), obs.MaxEventLine)
	var out []FingerprintStats
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var st FingerprintStats
		if err := json.Unmarshal(line, &st); err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, sc.Err()
}

// SaveFile writes the snapshot to path via a temp file + rename, so a
// crash mid-write never leaves a truncated snapshot.
func (p *Profiler) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := p.WriteNDJSON(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
