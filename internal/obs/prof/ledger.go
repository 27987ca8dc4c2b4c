// Package prof is the continuous-profiling and resource-attribution
// layer: pprof label propagation for per-fingerprint CPU accounting, a
// runtime/metrics poller, cadenced CPU/heap profile capture with
// bounded disk, a stdlib pprof-protobuf parser, and a per-query
// resource ledger threaded through ping → engine → dataflow → dfs.
//
// Everything here is stdlib-only and import-light (only internal/obs),
// so any layer of the system can attach to it without cycles.
package prof

import (
	"context"
	"sync/atomic"
	"time"
)

// Ledger accumulates the measured cost of one query run. All methods
// are safe for concurrent use from dataflow workers and are nil-safe:
// code paths without an attached ledger pay one pointer test.
//
// CPU here is task-execution wall time summed over dataflow tasks (Go
// exposes no per-goroutine CPU clock); profile-attributed CPU seconds
// come separately from label-aggregated pprof samples (CPUByLabel).
type Ledger struct {
	taskNanos        atomic.Int64
	rowsLoaded       atomic.Int64
	bytesDecoded     atomic.Int64
	storageBytesRead atomic.Int64
	cacheBytesPinned atomic.Int64
	dictDecodes      atomic.Int64
	peakRelationRows atomic.Int64
}

// Snapshot is a point-in-time copy of a ledger, suitable for stamping
// into wide events and workload aggregates.
type Snapshot struct {
	// TaskNanos is execution wall time summed across dataflow tasks run
	// on the query's behalf (parallel tasks sum, so this can exceed the
	// query's latency).
	TaskNanos int64
	// RowsLoaded counts sub-partition rows materialized for the query.
	RowsLoaded int64
	// BytesDecoded counts resident bytes of PairBlocks decoded on cache
	// misses for the query.
	BytesDecoded int64
	// StorageBytesRead counts bytes read from the dfs storage layer.
	StorageBytesRead int64
	// CacheBytesPinned is the peak total of PairBlock cache bytes the
	// query held referenced at once.
	CacheBytesPinned int64
	// DictDecodes counts dictionary ID→string decodes done to emit the
	// query's results.
	DictDecodes int64
	// PeakRelationRows is the largest relation cardinality materialized
	// while joining.
	PeakRelationRows int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// AddTask records the wall duration of one executed dataflow task.
func (l *Ledger) AddTask(d time.Duration) {
	if l != nil {
		l.taskNanos.Add(int64(d))
	}
}

// AddRowsLoaded records sub-partition rows materialized.
func (l *Ledger) AddRowsLoaded(n int64) {
	if l != nil && n > 0 {
		l.rowsLoaded.Add(n)
	}
}

// AddBytesDecoded records resident bytes decoded on a cache miss.
func (l *Ledger) AddBytesDecoded(n int64) {
	if l != nil && n > 0 {
		l.bytesDecoded.Add(n)
	}
}

// AddStorageBytesRead records bytes read from storage.
func (l *Ledger) AddStorageBytesRead(n int64) {
	if l != nil && n > 0 {
		l.storageBytesRead.Add(n)
	}
}

// AddDictDecodes records dictionary decodes.
func (l *Ledger) AddDictDecodes(n int64) {
	if l != nil && n > 0 {
		l.dictDecodes.Add(n)
	}
}

// ObserveCacheBytesPinned raises the pinned-cache-bytes peak to n if
// it is the highest total observed so far.
func (l *Ledger) ObserveCacheBytesPinned(n int64) {
	if l != nil {
		raise(&l.cacheBytesPinned, n)
	}
}

// ObservePeakRelationRows raises the peak relation cardinality to n if
// it is the highest observed so far.
func (l *Ledger) ObservePeakRelationRows(n int64) {
	if l != nil {
		raise(&l.peakRelationRows, n)
	}
}

func raise(a *atomic.Int64, n int64) {
	for {
		cur := a.Load()
		if n <= cur || a.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Add folds an earlier snapshot into the ledger — the work of a query
// lineage's previous run segments — summing the totals and raising the
// two peaks.
func (l *Ledger) Add(s Snapshot) {
	l.AddTask(time.Duration(s.TaskNanos))
	l.AddRowsLoaded(s.RowsLoaded)
	l.AddBytesDecoded(s.BytesDecoded)
	l.AddStorageBytesRead(s.StorageBytesRead)
	l.AddDictDecodes(s.DictDecodes)
	l.ObserveCacheBytesPinned(s.CacheBytesPinned)
	l.ObservePeakRelationRows(s.PeakRelationRows)
}

// Snapshot returns the current totals. A nil ledger snapshots to zero.
func (l *Ledger) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	return Snapshot{
		TaskNanos:        l.taskNanos.Load(),
		RowsLoaded:       l.rowsLoaded.Load(),
		BytesDecoded:     l.bytesDecoded.Load(),
		StorageBytesRead: l.storageBytesRead.Load(),
		CacheBytesPinned: l.cacheBytesPinned.Load(),
		DictDecodes:      l.dictDecodes.Load(),
		PeakRelationRows: l.peakRelationRows.Load(),
	}
}

type ledgerKey struct{}

// WithLedger attaches a ledger to the context; every layer below
// (ping, engine, dataflow, dfs) accounts into it.
func WithLedger(ctx context.Context, l *Ledger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, ledgerKey{}, l)
}

// LedgerFrom returns the context's ledger, or nil (all Ledger methods
// accept a nil receiver).
func LedgerFrom(ctx context.Context) *Ledger {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(ledgerKey{}).(*Ledger)
	return l
}
