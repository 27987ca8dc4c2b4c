// Package dataflow implements a miniature in-process dataflow engine that
// stands in for Apache Spark in the paper's stack. Data lives in
// partitioned datasets; narrow transformations (map, filter) run
// partition-parallel on a worker pool of simulated executors, and wide
// transformations (distinct, joins, re-partitioning) perform an explicit
// hash shuffle. Every stage records metrics — tasks launched, rows read,
// rows shuffled — which the benchmark harness reports as the "data access"
// measurements of the paper's evaluation.
//
// The engine is deliberately eager (each transformation materializes its
// output) — lineage/lazy evaluation would add complexity without changing
// any behaviour the experiments observe.
package dataflow

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ping/internal/obs"
	"ping/internal/obs/prof"
)

// Metrics aggregates execution counters across all stages run on a
// Context. All fields are updated atomically.
type Metrics struct {
	Stages        int64 // transformations executed
	Tasks         int64 // partition-level tasks launched
	RowsRead      int64 // input rows consumed by narrow stages
	RowsShuffled  int64 // rows moved across partitions by wide stages
	RowsBroadcast int64 // small-side rows replicated to every partition
}

// Context owns the executor pool and metrics. The number of workers models
// the cluster's total core count; defaultParallelism is the partition
// count given to new datasets when the caller does not choose one.
type Context struct {
	workers            int
	defaultParallelism int

	stages        atomic.Int64
	tasks         atomic.Int64
	rowsRead      atomic.Int64
	rowsShuffled  atomic.Int64
	rowsBroadcast atomic.Int64

	// cancelCtx, when set, short-circuits task scheduling so a cancelled
	// or timed-out query cannot keep the worker pool busy. Stages started
	// after cancellation produce incomplete partitions; callers observe
	// Err() and discard the results (ping does this after every
	// evaluation). It also carries the active trace span, under which
	// runTasks nests per-stage spans.
	cancelCtx atomic.Pointer[context.Context]

	// obsMetrics mirrors the counters into named obs series; swapped
	// atomically by SetMetricsRegistry.
	obsMetrics atomic.Pointer[ctxMetrics]
}

// ctxMetrics holds the resolved obs handles for the registry the context
// publishes to.
type ctxMetrics struct {
	stages, tasks, shuffled, broadcast *obs.Counter
}

func newCtxMetrics(reg *obs.Registry) *ctxMetrics {
	if reg == nil {
		return nil
	}
	reg.Describe("dataflow_stages_total", "transformations executed on the worker pool")
	reg.Describe("dataflow_tasks_total", "partition-level tasks launched")
	reg.Describe("dataflow_rows_shuffled_total", "rows moved across partitions by wide stages")
	reg.Describe("dataflow_rows_broadcast_total", "small-side rows replicated to every partition")
	return &ctxMetrics{
		stages:    reg.Counter("dataflow_stages_total", nil),
		tasks:     reg.Counter("dataflow_tasks_total", nil),
		shuffled:  reg.Counter("dataflow_rows_shuffled_total", nil),
		broadcast: reg.Counter("dataflow_rows_broadcast_total", nil),
	}
}

// NewContext creates a context with the given worker count; zero or
// negative means GOMAXPROCS.
func NewContext(workers int) *Context {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Context{workers: workers, defaultParallelism: workers * 2}
	c.obsMetrics.Store(newCtxMetrics(obs.Default))
	return c
}

// SetMetricsRegistry redirects the context's named metrics to reg (nil
// disables them). New contexts default to obs.Default.
func (c *Context) SetMetricsRegistry(reg *obs.Registry) {
	c.obsMetrics.Store(newCtxMetrics(reg))
}

// Workers returns the executor pool size.
func (c *Context) Workers() int { return c.workers }

// Metrics returns a snapshot of the counters.
func (c *Context) Metrics() Metrics {
	return Metrics{
		Stages:        c.stages.Load(),
		Tasks:         c.tasks.Load(),
		RowsRead:      c.rowsRead.Load(),
		RowsShuffled:  c.rowsShuffled.Load(),
		RowsBroadcast: c.rowsBroadcast.Load(),
	}
}

// ResetMetrics zeroes the counters; the harness calls this between
// measured queries.
func (c *Context) ResetMetrics() {
	c.stages.Store(0)
	c.tasks.Store(0)
	c.rowsRead.Store(0)
	c.rowsShuffled.Store(0)
	c.rowsBroadcast.Store(0)
}

// AttachContext installs ctx as the cancellation signal for stages run on
// this Context and returns a detach function restoring the previous
// signal. While attached, workers stop claiming tasks once ctx is done;
// the in-flight query must then discard its (partial) results — ping
// checks Err after every evaluation. Queries sharing one Context share
// the signal, so attach per logical query run.
func (c *Context) AttachContext(ctx context.Context) (detach func()) {
	prev := c.cancelCtx.Swap(&ctx)
	return func() { c.cancelCtx.Store(prev) }
}

// Err reports the attached context's error: non-nil once the current
// query run is cancelled or past its deadline.
func (c *Context) Err() error {
	if p := c.cancelCtx.Load(); p != nil {
		return (*p).Err()
	}
	return nil
}

// runTasks executes f(0..n-1) on the worker pool and blocks until done,
// or until the attached context is cancelled (remaining tasks are
// skipped — results are then partial and must be discarded).
func (c *Context) runTasks(n int, f func(i int)) {
	c.stages.Add(1)
	c.tasks.Add(int64(n))
	if m := c.obsMetrics.Load(); m != nil {
		m.stages.Inc()
		m.tasks.Add(int64(n))
	}
	// Nest a stage span under the query's span when one is attached, and
	// charge task time to the query's resource ledger when one is.
	var led *prof.Ledger
	if p := c.cancelCtx.Load(); p != nil {
		led = prof.LedgerFrom(*p)
		if _, sp := obs.StartSpan(*p, "dataflow.stage"); sp != nil {
			sp.SetAttr("tasks", n)
			defer sp.End()
		}
	}
	if led != nil {
		inner := f
		f = func(i int) {
			t0 := time.Now()
			inner(i)
			led.AddTask(time.Since(t0))
		}
	}
	workers := c.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if c.Err() != nil {
				return
			}
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if c.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Dataset is a partitioned collection of T.
type Dataset[T any] struct {
	ctx   *Context
	parts [][]T
}

// Parallelize distributes data round-robin-by-range into numParts
// partitions (<=0 means the context default).
func Parallelize[T any](ctx *Context, data []T, numParts int) *Dataset[T] {
	if numParts <= 0 {
		numParts = ctx.defaultParallelism
	}
	if numParts > len(data) && len(data) > 0 {
		numParts = len(data)
	}
	if len(data) == 0 {
		numParts = 1
	}
	parts := make([][]T, numParts)
	chunk := (len(data) + numParts - 1) / numParts
	for i := 0; i < numParts; i++ {
		lo := i * chunk
		hi := lo + chunk
		if lo > len(data) {
			lo = len(data)
		}
		if hi > len(data) {
			hi = len(data)
		}
		parts[i] = data[lo:hi]
	}
	return &Dataset[T]{ctx: ctx, parts: parts}
}

// NumPartitions returns the partition count.
func (d *Dataset[T]) NumPartitions() int { return len(d.parts) }

// Count returns the total number of rows.
func (d *Dataset[T]) Count() int {
	n := 0
	for _, p := range d.parts {
		n += len(p)
	}
	return n
}

// Collect concatenates all partitions into one slice (partition order).
func (d *Dataset[T]) Collect() []T {
	out := make([]T, 0, d.Count())
	for _, p := range d.parts {
		out = append(out, p...)
	}
	return out
}

// Map applies f to every row, partition-parallel.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	out := make([][]U, len(d.parts))
	d.ctx.runTasks(len(d.parts), func(i int) {
		in := d.parts[i]
		d.ctx.rowsRead.Add(int64(len(in)))
		o := make([]U, len(in))
		for j, v := range in {
			o[j] = f(v)
		}
		out[i] = o
	})
	return &Dataset[U]{ctx: d.ctx, parts: out}
}

// Filter keeps the rows satisfying pred.
func Filter[T any](d *Dataset[T], pred func(T) bool) *Dataset[T] {
	out := make([][]T, len(d.parts))
	d.ctx.runTasks(len(d.parts), func(i int) {
		in := d.parts[i]
		d.ctx.rowsRead.Add(int64(len(in)))
		var o []T
		for _, v := range in {
			if pred(v) {
				o = append(o, v)
			}
		}
		out[i] = o
	})
	return &Dataset[T]{ctx: d.ctx, parts: out}
}

// Union concatenates the partitions of both datasets (bag semantics, like
// Spark's union).
func Union[T any](a, b *Dataset[T]) *Dataset[T] {
	parts := make([][]T, 0, len(a.parts)+len(b.parts))
	parts = append(parts, a.parts...)
	parts = append(parts, b.parts...)
	return &Dataset[T]{ctx: a.ctx, parts: parts}
}

// Pair is a keyed row, the unit of wide (shuffling) transformations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// fnvMix hashes arbitrary comparable keys by routing them through a map
// would be slow; instead we require the caller to provide a hash via
// KeyHasher when K is not an integer. For the engine's internal use all
// keys are uint64-convertible, so the default hasher covers them.
type hasher[K comparable] func(K) uint64

// shuffle redistributes keyed rows into numParts buckets by key hash and
// counts every moved row.
func shuffle[K comparable, V any](d *Dataset[Pair[K, V]], numParts int, h hasher[K]) *Dataset[Pair[K, V]] {
	if numParts <= 0 {
		numParts = d.ctx.defaultParallelism
	}
	// Each input partition writes to numParts local buckets...
	local := make([][][]Pair[K, V], len(d.parts))
	d.ctx.runTasks(len(d.parts), func(i int) {
		buckets := make([][]Pair[K, V], numParts)
		for _, row := range d.parts[i] {
			b := int(h(row.Key) % uint64(numParts))
			buckets[b] = append(buckets[b], row)
		}
		d.ctx.rowsRead.Add(int64(len(d.parts[i])))
		d.ctx.rowsShuffled.Add(int64(len(d.parts[i])))
		if m := d.ctx.obsMetrics.Load(); m != nil {
			m.shuffled.Add(int64(len(d.parts[i])))
		}
		local[i] = buckets
	})
	// ...then buckets are concatenated per target partition.
	out := make([][]Pair[K, V], numParts)
	d.ctx.runTasks(numParts, func(b int) {
		var o []Pair[K, V]
		for i := range local {
			o = append(o, local[i][b]...)
		}
		out[b] = o
	})
	return &Dataset[Pair[K, V]]{ctx: d.ctx, parts: out}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// JoinByKey computes the inner equi-join of two keyed datasets. Both sides
// are shuffled to the same partitioning, then each partition is joined
// with an in-memory hash table built on the smaller side.
func JoinByKey[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]], numParts int, hash func(K) uint64) *Dataset[Pair[K, JoinRow[A, B]]] {
	if numParts <= 0 {
		numParts = left.ctx.defaultParallelism
	}
	h := func(k K) uint64 { return mix64(hash(k)) }
	l := shuffle(left, numParts, h)
	r := shuffle(right, numParts, h)
	out := make([][]Pair[K, JoinRow[A, B]], numParts)
	left.ctx.runTasks(numParts, func(i int) {
		lp, rp := l.parts[i], r.parts[i]
		left.ctx.rowsRead.Add(int64(len(lp) + len(rp)))
		// Build on the smaller side.
		if len(lp) <= len(rp) {
			table := make(map[K][]A, len(lp))
			for _, row := range lp {
				table[row.Key] = append(table[row.Key], row.Value)
			}
			var o []Pair[K, JoinRow[A, B]]
			for _, row := range rp {
				for _, a := range table[row.Key] {
					o = append(o, Pair[K, JoinRow[A, B]]{row.Key, JoinRow[A, B]{a, row.Value}})
				}
			}
			out[i] = o
		} else {
			table := make(map[K][]B, len(rp))
			for _, row := range rp {
				table[row.Key] = append(table[row.Key], row.Value)
			}
			var o []Pair[K, JoinRow[A, B]]
			for _, row := range lp {
				for _, b := range table[row.Key] {
					o = append(o, Pair[K, JoinRow[A, B]]{row.Key, JoinRow[A, B]{row.Value, b}})
				}
			}
			out[i] = o
		}
	})
	return &Dataset[Pair[K, JoinRow[A, B]]]{ctx: left.ctx, parts: out}
}

// JoinRow pairs the two sides of a join match.
type JoinRow[A, B any] struct {
	Left  A
	Right B
}

// BroadcastJoin computes the inner equi-join by replicating the (small)
// right side to every partition of the left side — Spark's broadcast hash
// join. No shuffle of the big side occurs; the replication cost
// |small| × partitions is recorded in RowsBroadcast.
func BroadcastJoin[K comparable, A, B any](left *Dataset[Pair[K, A]], small []Pair[K, B]) *Dataset[Pair[K, JoinRow[A, B]]] {
	table := make(map[K][]B, len(small))
	for _, row := range small {
		table[row.Key] = append(table[row.Key], row.Value)
	}
	left.ctx.rowsBroadcast.Add(int64(len(small)) * int64(len(left.parts)))
	if m := left.ctx.obsMetrics.Load(); m != nil {
		m.broadcast.Add(int64(len(small)) * int64(len(left.parts)))
	}
	out := make([][]Pair[K, JoinRow[A, B]], len(left.parts))
	left.ctx.runTasks(len(left.parts), func(i int) {
		in := left.parts[i]
		left.ctx.rowsRead.Add(int64(len(in)))
		var o []Pair[K, JoinRow[A, B]]
		for _, row := range in {
			for _, b := range table[row.Key] {
				o = append(o, Pair[K, JoinRow[A, B]]{row.Key, JoinRow[A, B]{row.Value, b}})
			}
		}
		out[i] = o
	})
	return &Dataset[Pair[K, JoinRow[A, B]]]{ctx: left.ctx, parts: out}
}

// Distinct removes duplicate rows via a hash shuffle so that equal rows
// meet in the same partition.
func Distinct[T comparable](d *Dataset[T], numParts int, hash func(T) uint64) *Dataset[T] {
	keyed := Map(d, func(v T) Pair[T, struct{}] { return Pair[T, struct{}]{v, struct{}{}} })
	sh := shuffle(keyed, numParts, func(k T) uint64 { return mix64(hash(k)) })
	out := make([][]T, len(sh.parts))
	d.ctx.runTasks(len(sh.parts), func(i int) {
		seen := make(map[T]struct{}, len(sh.parts[i]))
		var o []T
		for _, row := range sh.parts[i] {
			if _, dup := seen[row.Key]; !dup {
				seen[row.Key] = struct{}{}
				o = append(o, row.Key)
			}
		}
		d.ctx.rowsRead.Add(int64(len(sh.parts[i])))
		out[i] = o
	})
	return &Dataset[T]{ctx: d.ctx, parts: out}
}

// ReduceByKey combines values sharing a key with reduce, after a shuffle.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], numParts int, hash func(K) uint64, reduce func(V, V) V) *Dataset[Pair[K, V]] {
	sh := shuffle(d, numParts, func(k K) uint64 { return mix64(hash(k)) })
	out := make([][]Pair[K, V], len(sh.parts))
	d.ctx.runTasks(len(sh.parts), func(i int) {
		acc := make(map[K]V, len(sh.parts[i]))
		order := make([]K, 0, len(sh.parts[i]))
		for _, row := range sh.parts[i] {
			if cur, ok := acc[row.Key]; ok {
				acc[row.Key] = reduce(cur, row.Value)
			} else {
				acc[row.Key] = row.Value
				order = append(order, row.Key)
			}
		}
		d.ctx.rowsRead.Add(int64(len(sh.parts[i])))
		o := make([]Pair[K, V], 0, len(order))
		for _, k := range order {
			o = append(o, Pair[K, V]{k, acc[k]})
		}
		out[i] = o
	})
	return &Dataset[Pair[K, V]]{ctx: d.ctx, parts: out}
}
