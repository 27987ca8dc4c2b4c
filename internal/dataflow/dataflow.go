// Package dataflow implements a miniature in-process dataflow engine, the
// stand-in for Apache Spark's executors in the paper's stack. Data lives
// in partitioned datasets, and Map runs partition-parallel on a worker
// pool of simulated executors. PING uses it for one thing: reading a
// step's sub-partitions in parallel. Every stage records metrics —
// stages and tasks launched, rows read.
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

	"ping/internal/obs"
)

// Metrics aggregates execution counters across all stages run on a
// Context. All fields are updated atomically.
type Metrics struct {
	Stages   int64 // transformations executed
	Tasks    int64 // partition-level tasks launched
	RowsRead int64 // input rows consumed by stages
}

// Context owns the executor pool and metrics. The number of workers models
// the cluster's total core count; defaultParallelism is the partition
// count given to new datasets when the caller does not choose one.
type Context struct {
	workers            int
	defaultParallelism int

	stages   atomic.Int64
	tasks    atomic.Int64
	rowsRead atomic.Int64

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
	stages, tasks *obs.Counter
}

func newCtxMetrics(reg *obs.Registry) *ctxMetrics {
	if reg == nil {
		return nil
	}
	reg.Describe("dataflow_stages_total", "transformations executed on the worker pool")
	reg.Describe("dataflow_tasks_total", "partition-level tasks launched")
	return &ctxMetrics{
		stages: reg.Counter("dataflow_stages_total", nil),
		tasks:  reg.Counter("dataflow_tasks_total", nil),
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
		Stages:   c.stages.Load(),
		Tasks:    c.tasks.Load(),
		RowsRead: c.rowsRead.Load(),
	}
}

// ResetMetrics zeroes the counters; the harness calls this between
// measured queries.
func (c *Context) ResetMetrics() {
	c.stages.Store(0)
	c.tasks.Store(0)
	c.rowsRead.Store(0)
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
	// Nest a stage span under the query's span when one is attached.
	if p := c.cancelCtx.Load(); p != nil {
		if _, sp := obs.StartSpan(*p, "dataflow.stage"); sp != nil {
			sp.SetAttr("tasks", n)
			defer sp.End()
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
