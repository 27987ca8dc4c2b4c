package prof

import (
	"context"
	"runtime/pprof"

	"ping/internal/obs"
)

// Profile label keys stamped on query-execution goroutines. A CPU
// profile captured while queries run attributes samples to
// fingerprints via LabelQueryFP; go tool pprof -tags sums them per
// value, and -tagfocus=query_fp=<fp> narrows a profile to one class.
const (
	LabelQueryFP = "query_fp"
	LabelTraceID = "trace_id"
	LabelStage   = "stage"
)

type fpKey struct{}

// WithQueryFP records the query's workload fingerprint in the context
// so the execution layer (ping) can stamp it as a pprof label without
// depending on the workload package.
func WithQueryFP(ctx context.Context, fp string) context.Context {
	if fp == "" {
		return ctx
	}
	return context.WithValue(ctx, fpKey{}, fp)
}

// QueryFP returns the fingerprint attached by WithQueryFP ("" if none).
func QueryFP(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	fp, _ := ctx.Value(fpKey{}).(string)
	return fp
}

// Do runs fn with query_fp / trace_id / stage pprof labels set on the
// current goroutine; every goroutine spawned inside fn (the dataflow
// pool workers executing the query's stages) inherits them. The
// fingerprint comes from WithQueryFP and the trace ID from the
// context's span; empty values are omitted. With no labels to set it
// degrades to a plain call.
func Do(ctx context.Context, stage string, fn func(context.Context)) {
	kv := make([]string, 0, 6)
	if fp := QueryFP(ctx); fp != "" {
		kv = append(kv, LabelQueryFP, fp)
	}
	if tid := obs.TraceIDFromContext(ctx); tid != "" {
		kv = append(kv, LabelTraceID, tid)
	}
	if stage != "" {
		kv = append(kv, LabelStage, stage)
	}
	if len(kv) == 0 {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(kv...), fn)
}
