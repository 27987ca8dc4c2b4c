package workload

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowQuery is one slow-query log record, written as a single NDJSON
// line when a query's latency crosses the log's threshold.
type SlowQuery struct {
	// Time is the RFC3339 completion timestamp (stamped by Observe).
	Time string `json:"time"`
	// Fingerprint and Canonical identify the workload entry.
	Fingerprint string `json:"fingerprint"`
	Canonical   string `json:"canonical,omitempty"`
	// Query is the original (pre-normalization) query text.
	Query string `json:"query,omitempty"`
	// Epoch is the layout snapshot the run was pinned to.
	Epoch uint64 `json:"epoch"`
	// LatencyMs is the query's total wall time.
	LatencyMs float64 `json:"latency_ms"`
	// ThresholdMs is the log's threshold (stamped by Observe).
	ThresholdMs float64 `json:"threshold_ms"`
	// Plan summarizes the run's plan: strategy, step and sub-partition
	// counts, deepest level, incremental mode.
	Plan *PlanSummary `json:"plan,omitempty"`
	// StepMs holds the per-step wall times of the run.
	StepMs []float64 `json:"step_ms,omitempty"`
	// Answers is the final answer count.
	Answers int `json:"answers"`
	// Degraded marks runs that skipped unreadable sub-partitions.
	Degraded bool `json:"degraded,omitempty"`
	// Error carries the failure message of runs that errored.
	Error string `json:"error,omitempty"`
}

// PlanSummary is the compact plan digest carried by slow-query records.
type PlanSummary struct {
	Strategy string `json:"strategy"`
	Steps    int    `json:"steps"`
	SubParts int    `json:"subparts"`
	MaxLevel int    `json:"max_level"`
}

// SlowLog writes threshold-triggered SlowQuery records as NDJSON. A nil
// *SlowLog never logs, so call sites need no guards.
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	emitted   int64
}

// NewSlowLog logs queries slower than threshold to w. A non-positive
// threshold logs every query.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{w: w, threshold: threshold}
}

// Observe writes one record iff latency >= the threshold, stamping the
// record's Time, LatencyMs, and ThresholdMs. It reports whether a record
// was written.
func (l *SlowLog) Observe(rec SlowQuery, latency time.Duration) bool {
	if l == nil || latency < l.threshold {
		return false
	}
	rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	rec.LatencyMs = float64(latency.Microseconds()) / 1000
	rec.ThresholdMs = float64(l.threshold.Microseconds()) / 1000
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := json.NewEncoder(l.w).Encode(rec); err != nil {
		return false
	}
	l.emitted++
	return true
}

// Emitted returns how many records have been written.
func (l *SlowLog) Emitted() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.emitted
}
