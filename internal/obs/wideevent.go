// Wide-event query telemetry: ONE canonical structured record per query
// lineage, carrying everything the run revealed — identity (fingerprint,
// trace ID), snapshot (epoch, layout signature), budget, segmentation,
// the per-step coverage trajectory, cache behaviour, degradation, and
// the outcome. It is the one record a lineage leaves: the workload
// profiler (workload.Profiler.Observe), the slow-query log
// (workload.SlowLog.Observe) and the SLO engine (slo.Engine.Observe)
// each take it as it is, live in pingd and offline from the NDJSON
// stream alike.
//
// Events are NDJSON through an AsyncSink over a RotatingFile, so
// emission never blocks a query and the stream's disk footprint is
// bounded.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"time"
)

// WideEvent is the canonical per-query-lineage record. Field names are
// the stable NDJSON schema; zero-valued optional fields are omitted.
type WideEvent struct {
	// Time is the RFC3339Nano completion timestamp (stamped by Emit when
	// empty).
	Time string `json:"time"`
	// TraceID links the event to the query's trace (propagated from the
	// client's traceparent header or generated server-side); empty when
	// the query was not traced.
	TraceID string `json:"trace_id,omitempty"`
	// Fingerprint, Shape and Canonical identify the workload entry
	// (α-equivalence class); Query is the original text.
	Fingerprint string `json:"fingerprint"`
	Shape       string `json:"shape,omitempty"`
	Canonical   string `json:"canonical,omitempty"`
	Query       string `json:"query,omitempty"`
	// Epoch is the snapshot the run pinned; LayoutSig its content
	// signature (stable across restarts, unlike the epoch number).
	Epoch     uint64 `json:"epoch"`
	LayoutSig uint64 `json:"layout_sig,omitempty"`
	// Strategy is the slice schedule strategy of the run.
	Strategy string `json:"strategy,omitempty"`
	// Budget echoes the client's declared budget, when any.
	BudgetSteps    int     `json:"budget_steps,omitempty"`
	BudgetRows     int64   `json:"budget_rows,omitempty"`
	BudgetDeadline float64 `json:"budget_deadline_ms,omitempty"`
	// Segments counts the run segments of the lineage (1 = never
	// paused); ResumedFrom is the cursor ID a multi-segment lineage
	// resumed through.
	Segments    int    `json:"segments,omitempty"`
	ResumedFrom string `json:"resumed_from,omitempty"`
	// Steps counts delivered progressive steps; StepMs and Coverage are
	// the per-step wall-time and coverage trajectories (coverage is
	// |answers after step i| / |final answers|, the paper's
	// progressiveness metric).
	Steps    int       `json:"steps"`
	StepMs   []float64 `json:"step_ms,omitempty"`
	Coverage []float64 `json:"coverage,omitempty"`
	// SubParts counts the sub-partitions the steps loaded; MaxLevel is
	// the deepest hierarchy level of the final step.
	SubParts int `json:"subparts,omitempty"`
	MaxLevel int `json:"max_level,omitempty"`
	// BudgetExhaustedStep is the 1-based step at which the client's
	// budget ran out (where the lineage last paused, or the step budget
	// of a run that finished within it) — the point whose coverage the
	// coverage-at-budget SLO measures. 0: no budget bound the lineage.
	BudgetExhaustedStep int `json:"budget_exhausted_step,omitempty"`
	// StepsToFirstAnswer is the 1-based step delivering the first answer
	// (0: none); CoverageAtFirst its coverage.
	StepsToFirstAnswer int     `json:"steps_to_first_answer,omitempty"`
	CoverageAtFirst    float64 `json:"coverage_at_first,omitempty"`
	// Answers and RowsLoaded summarize the result and the work done.
	Answers    int   `json:"answers"`
	RowsLoaded int64 `json:"rows_loaded,omitempty"`
	// CacheHits / CacheMisses count decoded sub-partition cache
	// behaviour.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Degraded and MissingSubParts report sub-partitions skipped as
	// unreadable (the answers remain a sound subset).
	Degraded        bool `json:"degraded,omitempty"`
	MissingSubParts int  `json:"missing_subparts,omitempty"`
	// Resource-ledger fields (prof.Ledger): what the lineage measurably
	// cost. TaskMs is step time, the sum of the lineage's StepMs (each
	// step's load + evaluate); the byte fields separate storage reads
	// from cache-miss decodes; CacheBytesPinned and PeakRelationRows are
	// peaks, not sums.
	TaskMs           float64 `json:"task_ms,omitempty"`
	BytesDecoded     int64   `json:"bytes_decoded,omitempty"`
	StorageBytesRead int64   `json:"storage_bytes_read,omitempty"`
	CacheBytesPinned int64   `json:"cache_bytes_pinned,omitempty"`
	DictDecodes      int64   `json:"dict_decodes,omitempty"`
	PeakRelationRows int64   `json:"peak_relation_rows,omitempty"`
	// LatencyMs is the lineage's total wall time, summed across
	// segments; Error carries the failure of runs that errored.
	LatencyMs float64 `json:"latency_ms"`
	Error     string  `json:"error,omitempty"`
}

// MaxQueryBytes caps the SPARQL text a server reads from one request
// body; pingd refuses a longer body with 413 rather than cut it.
const MaxQueryBytes = 1 << 20

// MaxEventLine bounds one line of a wide-event stream, so a corrupt
// stream cannot grow the reader's buffer without limit. It follows from
// MaxQueryBytes: an event carries the query text twice, as Query and as
// Canonical, and json.Marshal writes a byte of it as up to six (it
// escapes <, > and & as \u003c). Two fully escaped texts of the capped
// length take 12 MiB. The other 4 MiB cover the fields that do not
// scale with the text and a canonical form somewhat longer than the
// text (variables renamed to ?vN). A canonical form writes prefixed
// names in full; sparql.Parse refuses a query whose prefixed names
// expand past sparql.MaxExpansion (16) times its text, so an event
// grows at most linearly in its text. Only a text far above the usual
// size that expands its prefixes close to that bound can still pass
// this line bound, and the reader then refuses the line.
const MaxEventLine = 16 * MaxQueryBytes

// Latency returns LatencyMs as a duration, rounded to the nanosecond.
func (ev WideEvent) Latency() time.Duration {
	return time.Duration(math.Round(ev.LatencyMs * float64(time.Millisecond)))
}

// EventLog emits wide events as NDJSON through a bounded async sink. A
// nil *EventLog drops everything, so call sites need no guards.
type EventLog struct {
	sink *AsyncSink
	reg  *Registry
}

// NewEventLog builds an event log draining into w (typically a
// *RotatingFile; closed by Close when closable), with a bounded queue
// (queue <= 0: default). Emission stats are exported on reg (nil:
// Default) as wideevent_emitted_total / wideevent_dropped_total.
func NewEventLog(w interface{ Write([]byte) (int, error) }, queue int, reg *Registry) *EventLog {
	if reg == nil {
		reg = Default
	}
	reg.Describe("wideevent_emitted_total", "wide query events accepted by the async sink")
	reg.Describe("wideevent_dropped_total", "wide query events dropped (full queue or closed sink)")
	return &EventLog{sink: NewAsyncSink(w, queue), reg: reg}
}

// Emit records one event, stamping Time when unset. It reports whether
// the event was accepted by the queue.
func (l *EventLog) Emit(ev WideEvent) bool {
	if l == nil {
		return false
	}
	if ev.Time == "" {
		ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(ev)
	if err != nil {
		l.reg.Counter("wideevent_dropped_total", nil).Inc()
		return false
	}
	ok := l.sink.Emit(line)
	if ok {
		l.reg.Counter("wideevent_emitted_total", nil).Inc()
	} else {
		l.reg.Counter("wideevent_dropped_total", nil).Inc()
	}
	return ok
}

// Dropped returns how many events were discarded.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.sink.Dropped()
}

// Close drains and closes the sink (and its writer).
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	return l.sink.Close()
}

// ReadWideEvents parses a wide-event NDJSON stream written by EventLog.
// Blank lines are skipped; any other malformed line, or one longer than
// MaxEventLine, is an error.
func ReadWideEvents(r io.Reader) ([]WideEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxEventLine)
	var out []WideEvent
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev WideEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}
