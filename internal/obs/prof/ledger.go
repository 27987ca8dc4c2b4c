// Package prof is the continuous-profiling and resource-attribution
// layer: a per-query resource ledger threaded through ping and dfs,
// the one source of per-fingerprint cost; pprof label
// propagation, so captured profiles can be sliced by query; a
// runtime/metrics poller; and cadenced CPU/heap profile capture with
// bounded disk. Reading the captured profiles is left to the
// toolchain: go tool pprof -tags / -tagfocus.
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
// CPU here is step wall time: each progressive step's load + evaluate
// time, summed over the run's steps (Go exposes no per-goroutine CPU
// clock). It is the only CPU attribution: /resources ranks by it and
// cost-based admission predicts from it.
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
	// TaskNanos is step wall time: the sum of the query's steps'
	// load + evaluate time (ping's StepResult.Elapsed). Planning,
	// restore and result emission between steps are not in it.
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

// AddTask records the wall duration of one executed query step.
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
// (ping, dfs) accounts into it.
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
