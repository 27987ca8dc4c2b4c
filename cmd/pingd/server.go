package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ping/internal/cursor"
	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/obs/prof"
	"ping/internal/obs/slo"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
	"ping/internal/workload"
)

// workers is the dataflow pool size of each query.
const workers = 4

// defaultMaxInflight is the execution-slot count a zero MaxInflight
// (and the -max-inflight flag) means.
const defaultMaxInflight = 4

// serverConfig carries the daemon's tunables. main binds each flag-set
// field to its flag in newFlagSet; every value pingd does not expose is
// the default of the package it configures. resolve applies the
// defaults; a zero keeps the meaning documented on its field.
type serverConfig struct {
	// MaxInflight bounds concurrently executing queries (0: 4); MaxQueue
	// bounds how many more may wait for a slot. Beyond that /query
	// returns 429.
	MaxInflight int
	MaxQueue    int
	// QueryTimeout is the per-query deadline, queue wait included
	// (0 = none). A run that times out mid-flight parks as a cursor, so
	// the work already done stays resumable.
	QueryTimeout time.Duration
	// RowLimit caps the bindings included per step line when the client
	// asks for them (0 = never include bindings).
	RowLimit int
	// Strategy, FailurePolicy and UseBloomPruning configure query
	// processing exactly as in pingquery.
	Strategy        ping.SliceStrategy
	FailurePolicy   ping.FailurePolicy
	UseBloomPruning bool
	// Persist, when non-nil, is the on-disk file system whose manifest
	// (and the dictionary) is saved after each successful update, and
	// the durable layer hibernated cursors are written to. Nil keeps
	// cursors memory-only.
	Persist *dfs.FS
	// CursorTTL bounds how long a paused query stays resumable (and how
	// long its epoch lease pins the snapshot; 0: the cursor.Config
	// default).
	CursorTTL time.Duration
	// Metrics receives the daemon's and the processors' series
	// (nil: obs.Default).
	Metrics *obs.Registry
	// SlowLog, when non-nil, receives a structured NDJSON record for
	// every query slower than its threshold.
	SlowLog *workload.SlowLog
	// Trace retains per-query trace trees in a bounded ring served at
	// /traces. TraceSample keeps 1 in N queries (0 or 1: all). A request
	// carrying a valid traceparent header is always traced, regardless
	// of sampling.
	Trace       bool
	TraceSample int
	// Events, when non-nil, receives one wide query event per completed
	// lineage (the canonical per-query telemetry record).
	Events *obs.EventLog
	// SpanSink, when non-nil, receives every finished query trace as
	// flattened span NDJSON (one line per span).
	SpanSink *obs.AsyncSink
	// SLO evaluates the daemon's service-level objectives over the
	// lineage stream (nil: an engine with defaultObjectives).
	SLO *slo.Engine
	// AdmissionCPU, when positive, turns on cost-based admission: the
	// estimated CPU cost of all inflight queries (per-fingerprint
	// measurement from the resource ledger) may
	// not exceed this many CPU-seconds; excess queries get 429. Unknown
	// fingerprints always admit — shedding is by *measured* cost.
	AdmissionCPU time.Duration
}

// resolve rejects negative durations and counts, naming the flag that
// sets each, and fills in the defaults of the fields left zero. It is
// idempotent.
func (c *serverConfig) resolve() error {
	if err := rejectNegative(
		flagValue{"max-inflight", int64(c.MaxInflight)},
		flagValue{"max-queue", int64(c.MaxQueue)},
		flagValue{"query-timeout", int64(c.QueryTimeout)},
		flagValue{"rows", int64(c.RowLimit)},
		flagValue{"cursor-ttl", int64(c.CursorTTL)},
		flagValue{"trace-sample", int64(c.TraceSample)},
		flagValue{"admission-cpu", int64(c.AdmissionCPU)},
	); err != nil {
		return err
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = defaultMaxInflight
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	if c.SLO == nil {
		c.SLO = slo.NewEngine(c.Metrics, defaultObjectives()...)
	}
	return nil
}

// flagValue is a duration (in nanoseconds) or count and the flag that
// sets it.
type flagValue struct {
	flag string
	v    int64
}

// rejectNegative returns an error naming the first flag whose value is
// below zero.
func rejectNegative(vals ...flagValue) error {
	for _, f := range vals {
		if f.v < 0 {
			return fmt.Errorf("-%s must not be negative", f.flag)
		}
	}
	return nil
}

// defaultObjectives are the SLOs pingd evaluates when the caller does
// not supply an engine: latency, the paper's two progressiveness
// signals (steps to first answer, coverage at budget exhaustion), and
// availability.
func defaultObjectives() []*slo.Objective {
	return []*slo.Objective{
		slo.Latency("latency", 0.99, 2*time.Second),
		slo.FirstAnswerSteps("first-answer", 0.95, 3),
		slo.CoverageAtBudget("coverage-at-budget", 0.95, 0.5),
		slo.Availability("availability", 0.999),
	}
}

// server is the pingd HTTP surface over one epoch store. Queries pin
// snapshots (each request builds a cheap processor with its own dataflow
// pool, so cancellation never crosses requests); updates go through the
// single snapshot-mode maintainer guarded by maintMu. Interrupted or
// budget-bounded queries park as durable cursors in the cursor manager
// and resume via /resume.
type server struct {
	store *hpart.Store
	cfg   serverConfig

	// sem holds one token per executing query; queue holds one token per
	// admitted-but-waiting query.
	sem   chan struct{}
	queue chan struct{}

	maintMu sync.Mutex
	maint   *hpart.Maintainer

	rejected *obs.Counter
	updates  *obs.Counter
	decodes  *obs.Counter

	// inflightCost tracks the summed estimated CPU nanoseconds of
	// admitted queries when cost-based admission (AdmissionCPU) is on.
	inflightCost atomic.Int64
	costRejected *obs.Counter

	profiler *workload.Profiler
	sampler  *obs.Sampler
	traces   *obs.SpanBuffer

	// adviser caches the latest layout recommendation served at
	// /advisor and refreshed by the -advise-interval loop.
	adviser adviserState

	cursors *cursor.Manager
	// draining flips on SIGTERM: in-flight runs pause at their next step
	// boundary and park as cursors instead of running to completion.
	draining atomic.Bool

	// stepHook, when set (tests only), runs after each delivered step
	// line, with the response already flushed. Set and cleared via
	// setStepHook; handlers read it through the atomic slot.
	stepHook atomic.Pointer[func()]
}

// setStepHook installs (or, with nil, removes) the per-step test hook.
func (s *server) setStepHook(fn func()) {
	if fn == nil {
		s.stepHook.Store(nil)
		return
	}
	s.stepHook.Store(&fn)
}

// newServer builds the daemon over store; cfg is resolved first, so a
// negative value is an error.
func newServer(store *hpart.Store, cfg serverConfig) (*server, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	reg.Describe("pingd_rejected_total", "queries rejected by admission control (HTTP 429)")
	reg.Describe("pingd_cost_rejected_total", "queries shed by cost-based admission (measured CPU over budget)")
	reg.Describe("pingd_updates_total", "update batches applied and published as new epochs")
	reg.Describe("ping_dict_decodes_total", "integer IDs decoded to terms at NDJSON emission")
	var persist func() error
	if cfg.Persist != nil {
		// Hibernated records only survive a restart if the manifest
		// knows about them.
		persist = cfg.Persist.SaveManifest
	}
	s := &server{
		store:        store,
		cfg:          cfg,
		sem:          make(chan struct{}, cfg.MaxInflight),
		queue:        make(chan struct{}, cfg.MaxQueue),
		rejected:     reg.Counter("pingd_rejected_total", nil),
		costRejected: reg.Counter("pingd_cost_rejected_total", nil),
		updates:      reg.Counter("pingd_updates_total", nil),
		decodes:      reg.Counter("ping_dict_decodes_total", nil),
		profiler:     workload.NewProfiler(workload.Options{Metrics: reg}),
		cursors: cursor.New(cursor.Config{
			FS:      cfg.Persist,
			TTL:     cfg.CursorTTL,
			Store:   store,
			Metrics: reg,
			Persist: persist,
		}),
	}
	if cfg.Trace {
		s.sampler = obs.NewSampler(cfg.TraceSample)
		s.traces = obs.NewSpanBuffer(0)
	}
	return s, nil
}

// beginDrain makes every in-flight query pause at its next step
// boundary and park as a cursor. Called on SIGTERM before the HTTP
// server drains.
func (s *server) beginDrain() { s.draining.Store(true) }

// every runs fn each interval on its own goroutine; the returned
// function stops it and waits for a running fn to finish.
func every(interval time.Duration, fn func()) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// route is one mounted endpoint with the Content-Type its successful
// responses carry. The table drives both handler() and the endpoint
// regression test, so a route cannot be mounted without declaring its
// content type (or tested against a stale list).
type route struct {
	path        string
	contentType string
	// jsonBody marks routes whose plain-GET 200 body is one JSON
	// document (the walk test decodes it).
	jsonBody bool
	// admin marks introspection routes that move to the -admin-addr
	// listener when the operator splits the surface (splitHandlers).
	// On the default single listener they serve alongside everything
	// else, so admin routes change nothing unless the split is on.
	admin bool
	h     http.HandlerFunc
}

// routes lists every endpoint pingd serves (beyond the obs fallback).
func (s *server) routes() []route {
	return []route{
		{"/query", "application/x-ndjson", false, false, s.handleQuery},
		{"/resume", "application/x-ndjson", false, false, s.handleResume},
		{"/update", "application/json", true, false, s.handleUpdate},
		{"/stats", "application/json", true, false, s.handleStats},
		{"/explain", "application/json", true, false, s.handleExplain},
		{"/workload", "application/json", true, false, s.handleWorkload},
		{"/slo", "application/json", true, false, s.handleSLO},
		{"/advisor", "application/json", true, false, s.handleAdvisor},
		{"/traces", "application/json", true, true, s.handleTraces},
		{"/resources", "application/json", true, true, s.handleResources},
		{"/dashboard", "text/html; charset=utf-8", false, false, s.handleDashboard},
	}
}

// handler mounts the daemon's routes on one mux. The obs introspection
// mux (/metrics, /debug/vars, pprof) serves everything not claimed here.
func (s *server) handler(logf func(format string, args ...any)) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.path, obs.Instrument(s.cfg.Metrics, rt.path, logf, rt.h))
	}
	mux.Handle("/", obs.Handler(s.cfg.Metrics))
	return mux
}

// splitHandlers mounts the query surface and the admin surface on two
// muxes for the -admin-addr production posture: the main listener keeps
// serving queries but stops exposing metrics, pprof, traces and the
// resource ledger; those move (with the obs fallback) behind the admin
// listener, which is typically bound to loopback or an internal
// interface.
func (s *server) splitHandlers(logf func(format string, args ...any)) (public, admin http.Handler) {
	mainMux := http.NewServeMux()
	adminMux := http.NewServeMux()
	for _, rt := range s.routes() {
		target := mainMux
		if rt.admin {
			target = adminMux
		}
		target.Handle(rt.path, obs.Instrument(s.cfg.Metrics, rt.path, logf, rt.h))
	}
	adminMux.Handle("/", obs.Handler(s.cfg.Metrics))
	return mainMux, adminMux
}

// admit applies the admission policy: run now if an execution slot is
// free, otherwise wait in the bounded queue. It returns a release
// function and 0, or nil and the HTTP status to reject with.
func (s *server) admit(ctx context.Context) (func(), int) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, http.StatusTooManyRequests
	}
	defer func() { <-s.queue }()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	case <-ctx.Done():
		// Deadline or disconnect while queued.
		return nil, http.StatusServiceUnavailable
	}
}

// admitCost reserves fp's estimated CPU cost against the configured
// inflight CPU budget (cost-based admission, AdmissionCPU). The
// estimate is measurement, not planning: the ledger's task seconds per
// run of the fingerprint. Unknown fingerprints (estimate 0) always admit —
// something must run for cost to be measured. The returned release
// gives the reservation back; ok=false means the query should be shed.
func (s *server) admitCost(fp string) (release func(), ok bool) {
	budget := int64(s.cfg.AdmissionCPU)
	if budget <= 0 {
		return func() {}, true
	}
	est := int64(s.profiler.EstimateCost(fp))
	if est <= 0 {
		return func() {}, true
	}
	for {
		cur := s.inflightCost.Load()
		// A lone over-budget query still admits (cur==0): the budget sheds
		// concurrency, it is not a per-query veto.
		if cur > 0 && cur+est > budget {
			return nil, false
		}
		if s.inflightCost.CompareAndSwap(cur, cur+est) {
			return func() { s.inflightCost.Add(-est) }, true
		}
	}
}

// rejectCost answers a cost-admission shed: 429 with a machine-readable
// reason so clients can distinguish "too many queries" from "this
// fingerprint is measured too expensive right now".
func (s *server) rejectCost(w http.ResponseWriter, fp string) {
	s.rejected.Inc()
	s.costRejected.Inc()
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":           "overloaded",
		"reason":          "cost",
		"fingerprint":     fp,
		"estimated_cpu_s": s.profiler.EstimateCost(fp).Seconds(),
	})
}

// reject answers an admission failure. Overload (429) carries a
// Retry-After hint and a JSON body so clients can back off without
// sniffing prose: {"error":"overloaded","queue":N}.
func (s *server) reject(w http.ResponseWriter, code int) {
	s.rejected.Inc()
	if code != http.StatusTooManyRequests {
		http.Error(w, http.StatusText(code), code)
		return
	}
	queued := len(s.queue)
	// Every queued query must wait for an execution slot; assume about a
	// second per slot turn as the floor for the client's next attempt.
	retry := 1 + queued/max(1, s.cfg.MaxInflight)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": "overloaded", "queue": queued})
}

// parseBudget reads the client's ?max_steps=, ?max_rows= and ?deadline=
// budget bounds. A budgeted run executes the longest schedule prefix
// whose predicted loaded rows fit (the predicted-coverage-maximal
// prefix) and then pauses with a resumable cursor instead of erroring.
func parseBudget(r *http.Request) (ping.Budget, error) {
	var b ping.Budget
	q := r.URL.Query()
	if v := q.Get("max_steps"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return b, fmt.Errorf("bad max_steps %q", v)
		}
		b.MaxSteps = n
	}
	if v := q.Get("max_rows"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return b, fmt.Errorf("bad max_rows %q", v)
		}
		b.MaxLoadedRows = n
	}
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return b, fmt.Errorf("bad deadline %q", v)
		}
		b.Deadline = d
	}
	return b, nil
}

// stepLine is one NDJSON line of a streaming query response: the state
// of the progressive answer after one slice step. Epoch is constant
// across all lines of one response — the run is pinned to a snapshot.
// Cursor is the resume token as of this step: whatever line the client
// saw last, it can hand that token to /resume.
type stepLine struct {
	Step        int                 `json:"step"`
	MaxLevel    int                 `json:"max_level"`
	Epoch       uint64              `json:"epoch"`
	Answers     int                 `json:"answers"`
	NewAnswers  int                 `json:"new_answers"`
	RowsLoaded  int64               `json:"rows_loaded_cum"`
	ElapsedMS   float64             `json:"elapsed_ms"`
	Cursor      string              `json:"cursor,omitempty"`
	Restarted   bool                `json:"restarted,omitempty"`
	Degraded    bool                `json:"degraded,omitempty"`
	MissingSubP int                 `json:"missing_subparts,omitempty"`
	Bindings    []map[string]string `json:"bindings,omitempty"`
}

// doneLine terminates a streaming query response.
type doneLine struct {
	Done      bool    `json:"done"`
	Steps     int     `json:"steps"`
	Answers   int     `json:"answers"`
	Epoch     uint64  `json:"epoch"`
	Exact     bool    `json:"exact"`
	Segments  int     `json:"segments,omitempty"`
	Restarted bool    `json:"restarted,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// pausedLine terminates a segment that stopped before the final step:
// the run is parked as a cursor and Cursor resumes it.
type pausedLine struct {
	Paused       bool    `json:"paused"`
	Reason       string  `json:"reason"`
	Cursor       string  `json:"cursor"`
	Steps        int     `json:"steps"`
	PlannedSteps int     `json:"planned_steps"`
	Answers      int     `json:"answers"`
	Epoch        uint64  `json:"epoch"`
	Restarted    bool    `json:"restarted,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// errLine reports a failure after streaming has started (the status
// line is long gone by then).
type errLine struct {
	Error string `json:"error"`
}

// segment is the handler-side state of one run segment of a query
// lineage: the NDJSON emitter, the latest step and checkpoint, and the
// lineage record the segment extends.
type segment struct {
	s            *server
	enc          *json.Encoder
	flusher      http.Flusher
	dict         *rdf.DictView
	wantBindings bool
	// restarted marks a lineage that lost its snapshot and started over
	// on the current one (in this segment or an earlier one); every
	// line carries it.
	restarted bool

	steps  int // delivered by this segment
	last   ping.StepResult
	lastCp *ping.Checkpoint

	// rec is the lineage so far: a copy of the cursor's record on resume
	// (so a failed segment leaves the cursor untouched), extended with
	// this segment's steps as they complete. pausedAt is the lineage
	// step the segment resumed after (0 for a run from the first step).
	rec      cursor.Record
	pausedAt int

	// led is the lineage's resource ledger, seeded with the earlier
	// segments' cost; the runner attaches it to the run context so every
	// layer below (ping, engine, dataflow, dfs) accounts into it.
	// Nil-safe: all Ledger methods accept nil.
	led *prof.Ledger
}

func (s *server) newSegment(w http.ResponseWriter, rec cursor.Record, wantBindings bool) *segment {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	led := prof.NewLedger()
	led.Add(rec.Cost)
	return &segment{
		s:            s,
		enc:          json.NewEncoder(w),
		flusher:      flusher,
		dict:         s.store.Current().DictView(),
		wantBindings: wantBindings,
		restarted:    rec.Restarted,
		rec:          rec,
		pausedAt:     len(rec.StepAnswers),
		led:          led,
	}
}

// millis renders a duration in fractional milliseconds (µs precision),
// the unit of every NDJSON and wide-event timing.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// term decodes one binding ID through the segment's dictionary snapshot.
// The snapshot is taken at segment creation; if the run pinned a newer
// epoch (published between segment setup and the pin), its answers can
// carry IDs past the snapshot, so refresh from the current layout —
// the dictionary is append-only, so the newer view covers every older ID.
func (g *segment) term(id rdf.ID) string {
	if int(id) >= g.dict.Len() {
		g.dict = g.s.store.Current().DictView()
	}
	return g.dict.TermString(id)
}

func (g *segment) emit(v any) {
	_ = g.enc.Encode(v)
	if g.flusher != nil {
		g.flusher.Flush()
	}
}

// step is the PQA callback: record the step, stream its line (stamped
// with a resume token), and keep going unless the client is gone or the
// server is draining.
func (g *segment) step(ctx context.Context) func(ping.StepResult, *ping.Checkpoint) bool {
	return func(st ping.StepResult, cp *ping.Checkpoint) bool {
		g.steps++
		g.last = st
		g.lastCp = cp
		g.rec.StepMs = append(g.rec.StepMs, millis(st.Elapsed))
		g.rec.StepAnswers = append(g.rec.StepAnswers, st.Answers.Card())
		g.rec.SubParts += len(st.NewSubParts)
		g.rec.CacheHits += st.CacheHits
		g.rec.CacheMisses += st.CacheMisses
		line := stepLine{
			Step:        st.Step,
			MaxLevel:    st.MaxLevel,
			Epoch:       st.Epoch,
			Answers:     st.Answers.Card(),
			NewAnswers:  st.NewAnswers,
			RowsLoaded:  st.RowsLoadedCum,
			ElapsedMS:   millis(st.ElapsedCum),
			Cursor:      cursor.Token(g.rec.ID, st.Step),
			Restarted:   g.restarted,
			Degraded:    st.Degraded,
			MissingSubP: len(st.MissingSubParts),
		}
		if g.wantBindings {
			// Decode only the rows the line carries, not the whole
			// cumulative answer relation.
			vars := st.Answers.Vars
			rows := st.Answers.Rows[:min(g.s.cfg.RowLimit, st.Answers.Card())]
			for _, row := range rows {
				m := make(map[string]string, len(vars))
				for j, v := range vars {
					m[v] = g.term(row[j])
				}
				line.Bindings = append(line.Bindings, m)
			}
			n := int64(len(rows) * len(vars))
			g.s.decodes.Add(n)
			g.led.AddDictDecodes(n)
		}
		g.emit(line)
		if hook := g.s.stepHook.Load(); hook != nil {
			(*hook)()
		}
		return ctx.Err() == nil && !g.s.draining.Load()
	}
}

// run executes the segment: from the cursor's checkpoint when h is
// non-nil, else — or when the checkpoint's snapshot is gone and the data
// changed — from the first step on lay.
func (g *segment) run(ctx context.Context, proc *ping.Processor, lay *hpart.Layout, q *sparql.Query, h *cursor.Handle, budget ping.Budget) (*ping.RunStatus, error) {
	if h != nil {
		st, err := proc.PQAResumeRun(ctx, lay, h.Checkpoint(), budget, g.step(ctx))
		if !errors.Is(err, ping.ErrSnapshotMismatch) {
			return st, err
		}
		// Restart on the current snapshot, marked restarted: the old
		// trajectory no longer applies (the work it cost still counts).
		g.restarted = true
		g.steps, g.lastCp, g.pausedAt = 0, nil, 0
		g.rec.StepAnswers, g.rec.StepMs, g.rec.SubParts = nil, nil, 0
	}
	return proc.PQARunOn(ctx, lay, q, budget, g.step(ctx))
}

// pauseReason maps a segment outcome to the reason string on the paused
// line.
func (g *segment) pauseReason(ctx context.Context, st *ping.RunStatus) string {
	if st.Reason != ping.StopCallback {
		return string(st.Reason)
	}
	if g.s.draining.Load() {
		return "draining"
	}
	if ctx.Err() != nil {
		return "disconnected"
	}
	return string(ping.StopCallback)
}

// event completes a finished lineage's wide event: ev carries the
// request's identity, and the segment adds what the whole lineage did.
func (g *segment) event(ev obs.WideEvent, runErr error) obs.WideEvent {
	rec := &g.rec
	ev.Segments = rec.Segments
	ev.LatencyMs = millis(time.Duration(rec.LatencyNS))
	ev.Steps = len(rec.StepAnswers)
	ev.StepMs = rec.StepMs
	ev.SubParts = rec.SubParts
	ev.TaskMs = float64(rec.Cost.TaskNanos) / 1e6
	ev.RowsLoaded = rec.Cost.RowsLoaded
	ev.BytesDecoded = rec.Cost.BytesDecoded
	ev.StorageBytesRead = rec.Cost.StorageBytesRead
	ev.CacheBytesPinned = rec.Cost.CacheBytesPinned
	ev.DictDecodes = rec.Cost.DictDecodes
	ev.PeakRelationRows = rec.Cost.PeakRelationRows
	if runErr != nil {
		ev.Error = runErr.Error()
	}
	if g.steps == 0 {
		return ev
	}
	final := g.last.Answers.Card()
	ev.Answers = final
	ev.Epoch = g.last.Epoch
	ev.MaxLevel = g.last.MaxLevel
	ev.RowsLoaded = g.last.RowsLoadedCum // lineage-cumulative, from the checkpoint
	ev.CacheHits, ev.CacheMisses = rec.CacheHits, rec.CacheMisses
	ev.Degraded = g.last.Degraded
	ev.MissingSubParts = len(g.last.MissingSubParts)
	ev.Coverage = make([]float64, len(rec.StepAnswers))
	for i, n := range rec.StepAnswers {
		ev.Coverage[i] = 1
		if final > 0 {
			ev.Coverage[i] = float64(n) / float64(final)
		}
		if ev.StepsToFirstAnswer == 0 && n > 0 {
			ev.StepsToFirstAnswer = i + 1
			ev.CoverageAtFirst = ev.Coverage[i]
		}
	}
	switch {
	case runErr != nil:
	case g.pausedAt > 0:
		// Where the lineage last paused is where the client's budget ran
		// out.
		ev.BudgetExhaustedStep = g.pausedAt
	case ev.BudgetSteps > 0:
		// The budget never bound the run (it completed); coverage at the
		// budget boundary is still the progressive contract's measure.
		ev.BudgetExhaustedStep = min(ev.BudgetSteps, ev.Steps)
	}
	return ev
}

// maybeTrace roots a query span for the request: always when the client
// propagated a traceparent header (the trace already exists — refusing
// to continue it would orphan the client's span), otherwise when
// tracing is on and head sampling picks the request. It returns the
// (possibly span-carrying) context, the hex trace ID ("" when
// untraced), and a finish func that ends the span, retains it in the
// /traces ring and exports it to the span sink.
func (s *server) maybeTrace(ctx context.Context, name, fp, text string) (context.Context, string, func()) {
	remote, hasRemote := obs.RemoteFromContext(ctx)
	if !hasRemote && (s.traces == nil || !s.sampler.Sample()) {
		return ctx, "", func() {}
	}
	var qspan *obs.Span
	if hasRemote {
		ctx, qspan = obs.NewTraceFrom(ctx, name, remote)
	} else {
		ctx, qspan = obs.NewTrace(ctx, name)
	}
	qspan.SetAttr("fingerprint", fp)
	qspan.SetAttr("query", text)
	return ctx, qspan.TraceID().String(), func() {
		qspan.End()
		if s.traces != nil {
			s.traces.Add(qspan)
		}
		s.exportTrace(qspan)
	}
}

// exportTrace writes a finished trace to the span sink, one flattened
// span per NDJSON line.
func (s *server) exportTrace(root *obs.Span) {
	if s.cfg.SpanSink == nil {
		return
	}
	for _, rec := range obs.Flatten(root) {
		if line, err := json.Marshal(rec); err == nil {
			s.cfg.SpanSink.Emit(line)
		}
	}
}

// recordLineage emits a finished lineage's wide event — the one record
// of what it did — and feeds it to the workload profiler, the slow-query
// log and the SLO engine, exactly as an offline replay of the event
// stream does.
func (s *server) recordLineage(ev obs.WideEvent) {
	s.cfg.Events.Emit(ev)
	s.profiler.Observe(ev)
	s.cfg.SlowLog.Observe(ev)
	s.cfg.SLO.Observe(ev)
}

// handleQuery streams a progressive query: one JSON object per PQA step
// (each stamped with a resume cursor token), then a done or paused
// line. ?q= carries the SPARQL text (or the POST body does);
// ?bindings=1 includes up to RowLimit decoded rows per step;
// ?max_steps=/?max_rows=/?deadline= bound the segment, pausing with a
// cursor at the budget boundary.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	text, ok := queryText(w, r)
	if !ok {
		return
	}
	q, err := sparql.Parse(text)
	if err != nil {
		http.Error(w, fmt.Sprintf("parse: %v", err), http.StatusBadRequest)
		return
	}
	s.runSegment(w, r, q, text, nil)
}

// handleResume continues a paused query from its cursor: GET
// /resume?cursor=<token>. The response is the same NDJSON stream as
// /query, continuing at the step after the checkpoint. Budget
// parameters apply to the new segment; a segment that pauses again
// re-parks the cursor. If the cursor's snapshot lease expired AND the
// data changed, the run restarts from scratch on the current snapshot
// with restarted:true stamped on every line (answers stay sound — only
// the already-completed steps are lost).
func (s *server) handleResume(w http.ResponseWriter, r *http.Request) {
	token := r.URL.Query().Get("cursor")
	if token == "" {
		http.Error(w, "missing ?cursor=", http.StatusBadRequest)
		return
	}
	h, err := s.cursors.Checkout(token)
	switch {
	case errors.Is(err, cursor.ErrBadToken):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, cursor.ErrNotFound):
		http.Error(w, "unknown or expired cursor", http.StatusNotFound)
		return
	case errors.Is(err, cursor.ErrBusy):
		http.Error(w, "cursor resume already in flight", http.StatusConflict)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	text := h.Checkpoint().Query
	q, err := sparql.Parse(text)
	if err != nil {
		h.Abort()
		http.Error(w, fmt.Sprintf("cursor query: %v", err), http.StatusInternalServerError)
		return
	}
	s.runSegment(w, r, q, text, h)
}

// runSegment runs and streams one segment of a query lineage: a fresh
// run when h is nil, else the continuation of the checked-out cursor h.
// Every step before and after the run happens here once for both:
// budget, query timeout, cost then slot admission, trace root, ledger,
// processor, snapshot lease, and exactly one ending — error, paused
// (parking the lineage as a cursor), or done. A lineage is recorded
// when it ends for good; a resume that fails or is shed hands its
// cursor back unchanged, so the same token resumes later.
func (s *server) runSegment(w http.ResponseWriter, r *http.Request, q *sparql.Query, text string, h *cursor.Handle) {
	budget, err := parseBudget(r)
	if err != nil {
		h.Abort()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	canonical := workload.Canonical(q)
	fp := workload.FingerprintCanonical(canonical)

	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	// Cost-based admission first (it is cheap and does not queue), then
	// the slot/queue gate.
	costRelease, ok := s.admitCost(fp)
	if !ok {
		h.Abort()
		s.rejectCost(w, fp)
		return
	}
	defer costRelease()
	release, code := s.admit(ctx)
	if release == nil {
		h.Abort()
		s.reject(w, code)
		return
	}
	defer release()

	// The lineage so far, and the schedule it runs under: the cursor's
	// for a resume (its steps are numbered by it), the server's for a
	// fresh run.
	rec := cursor.Record{Fingerprint: fp}
	strategy, policy := s.cfg.Strategy, s.cfg.FailurePolicy
	span, resumedFrom := "query", ""
	if h != nil {
		rec = *h.Record()
		strategy, policy = rec.Checkpoint.Strategy, rec.Checkpoint.FailurePolicy
		span, resumedFrom = "resume", fmt.Sprintf("%x", rec.ID)
	} else if rec.ID, err = cursor.NewID(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	// Head-sampled tracing: the run's whole span tree (pqa → slice →
	// join) lands in the bounded ring served at /traces and the span
	// export sink. A propagated traceparent forces the trace on.
	ctx, traceID, finishTrace := s.maybeTrace(ctx, span, fp, text)
	defer finishTrace()

	// Resource attribution: the ledger collects the run's measured cost
	// through every layer, and the fingerprint becomes a pprof label on
	// all of the run's goroutines so captured CPU profiles attribute
	// samples back to this query class.
	g := s.newSegment(w, rec, r.URL.Query().Get("bindings") == "1" && s.cfg.RowLimit > 0)
	ctx = prof.WithLedger(prof.WithQueryFP(ctx, fp), g.led)
	proc := s.newProcessor(strategy, policy)

	// Run on the snapshot the lineage is pinned to while its lease
	// lives; otherwise lease the current one. If this segment pauses,
	// the cursor inherits the new lease and the next resume continues
	// on the exact same snapshot (until the lease TTL reclaims it).
	var lease *hpart.Lease
	lay, unpin, pinned := h.Lease().Acquire()
	if pinned {
		defer unpin()
	} else {
		lease, lay = s.cursors.Lease()
	}
	ev := obs.WideEvent{
		TraceID:        traceID,
		Fingerprint:    fp,
		Shape:          sparql.Classify(q).String(),
		Canonical:      canonical,
		Query:          text,
		LayoutSig:      lay.Signature(),
		Strategy:       strategy.String(),
		BudgetSteps:    budget.MaxSteps,
		BudgetRows:     budget.MaxLoadedRows,
		BudgetDeadline: millis(budget.Deadline),
		ResumedFrom:    resumedFrom,
	}

	start := time.Now()
	st, err := g.run(ctx, proc, lay, q, h, budget)
	latency := time.Since(start)
	if err != nil && ctx.Err() != nil && g.lastCp != nil {
		// Interrupted mid-step (client disconnect or timeout): the last
		// completed step's checkpoint still parks as a cursor, so the
		// client's tokens keep working.
		st, err = &ping.RunStatus{Reason: ping.StopCallback, Checkpoint: g.lastCp}, nil
	}
	g.rec.Cost = g.led.Snapshot()

	switch {
	case err != nil && h != nil:
		// The resume failed outright; the cursor keeps its old state for
		// another attempt.
		h.Abort()
		lease.Release()
		g.emit(errLine{Error: err.Error()})
	case err == nil && !st.Done:
		cp := st.Checkpoint
		if h == nil {
			g.rec.Checkpoint, g.rec.LatencyNS = *cp, int64(latency)
			if h, err = s.cursors.Create(&g.rec, lease); err != nil {
				g.emit(errLine{Error: err.Error()})
				return
			}
		} else {
			restarted := g.restarted && !g.rec.Restarted
			*h.Record() = g.rec
			h.Pause(cp, latency, restarted, lease)
		}
		g.emit(pausedLine{
			Paused:       true,
			Reason:       g.pauseReason(ctx, st),
			Cursor:       h.Token(cp.StepsDone),
			Steps:        cp.StepsDone,
			PlannedSteps: st.PlannedSteps,
			Answers:      cp.PrevAnswers,
			Epoch:        cp.Epoch,
			Restarted:    g.restarted,
			ElapsedMS:    millis(latency),
		})
	default:
		// The lineage ends here, done or failed: count its last segment
		// and record it once, with totals.
		lease.Release()
		if h == nil {
			g.rec.Segments, g.rec.LatencyNS = 1, int64(latency)
		} else {
			*h.Record() = g.rec
			g.rec = *h.Complete(latency)
		}
		s.recordLineage(g.event(ev, err))
		if err != nil {
			g.emit(errLine{Error: err.Error()})
			return
		}
		done := doneLine{
			Done:      true,
			Steps:     st.StepsDone,
			Epoch:     s.store.Epoch(),
			Exact:     true, // an unsafe query's empty result is exact
			Segments:  g.rec.Segments,
			Restarted: g.restarted,
			ElapsedMS: millis(latency),
		}
		if g.steps > 0 {
			done.Epoch = g.last.Epoch
			done.Answers = g.last.Answers.Card()
			done.Exact = !g.last.Degraded
		}
		g.emit(done)
	}
}

// newProcessor builds a per-request processor. Strategy and policy are
// parameters because a resume must mirror the checkpoint's, not the
// server's current defaults.
func (s *server) newProcessor(strategy ping.SliceStrategy, policy ping.FailurePolicy) *ping.Processor {
	return ping.NewProcessorStore(s.store, ping.Options{
		Context:         dataflow.NewContext(workers),
		Strategy:        strategy,
		FailurePolicy:   policy,
		UseBloomPruning: s.cfg.UseBloomPruning,
		Metrics:         s.cfg.Metrics,
	})
}

// updateResponse acknowledges a published epoch.
type updateResponse struct {
	Epoch     uint64  `json:"epoch"`
	Added     int     `json:"added"`
	Removed   int     `json:"removed"`
	Triples   int64   `json:"triples"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// maxUpdateBytes caps the N-Triples body of one /update request; a
// longer body gets 413 and publishes nothing.
const maxUpdateBytes = 16 << 20

// handleUpdate applies one maintenance batch and publishes it as a new
// epoch. The body is N-Triples of at most maxUpdateBytes; ?op=add
// (default) or ?op=remove selects the direction. Readers are never
// blocked: in-flight queries keep their pinned snapshots, and the new
// epoch is visible to queries admitted after this returns.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodPut {
		http.Error(w, "POST an N-Triples body", http.StatusMethodNotAllowed)
		return
	}
	op := r.URL.Query().Get("op")
	if op == "" {
		op = "add"
	}
	if op != "add" && op != "remove" {
		http.Error(w, fmt.Sprintf("unknown op %q (want add or remove)", op), http.StatusBadRequest)
		return
	}

	// The whole body is read before any of it is parsed, so a body over
	// the cap interns no term and publishes no epoch.
	body, err := readCapped(w, r, maxUpdateBytes)
	if err != nil {
		return
	}

	// Single writer: one batch at a time, one maintainer per store.
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	// Interning terms grows the shared dictionary, which is append-only
	// and thread-safe — concurrent queries are unaffected.
	g := &rdf.Graph{Dict: s.store.Current().Dict}
	if err := rdf.ParseNTriplesInto(bytes.NewReader(body), g); err != nil {
		http.Error(w, fmt.Sprintf("parse body: %v", err), http.StatusBadRequest)
		return
	}

	if s.maint == nil {
		m, err := hpart.NewStoreMaintainer(s.store)
		if err != nil {
			http.Error(w, fmt.Sprintf("maintainer: %v", err), http.StatusInternalServerError)
			return
		}
		s.maint = m
	}
	var add, remove []rdf.Triple
	if op == "add" {
		add = g.Triples
	} else {
		remove = g.Triples
	}
	start := time.Now()
	if err := s.maint.Apply(add, remove); err != nil {
		// The failed epoch was never published; the maintainer's CS
		// bookkeeping may be torn, so rebuild it on the next update.
		s.maint = nil
		http.Error(w, fmt.Sprintf("apply: %v", err), http.StatusInternalServerError)
		return
	}
	s.updates.Inc()
	cur := s.store.Current()
	if s.cfg.Persist != nil {
		if err := cur.SaveDict(); err != nil {
			http.Error(w, fmt.Sprintf("save dict: %v", err), http.StatusInternalServerError)
			return
		}
		if err := s.cfg.Persist.SaveManifest(); err != nil {
			http.Error(w, fmt.Sprintf("save manifest: %v", err), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(updateResponse{
		Epoch:     cur.Epoch(),
		Added:     len(add),
		Removed:   len(remove),
		Triples:   cur.TotalTriples(),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// statsResponse is the /stats document.
type statsResponse struct {
	Epoch         uint64       `json:"epoch"`
	Levels        int          `json:"levels"`
	Triples       int64        `json:"triples"`
	SubPartitions int          `json:"sub_partitions"`
	PinnedQueries int          `json:"pinned_queries"`
	PinnedEpochs  int          `json:"pinned_epochs"`
	RetiredFiles  int          `json:"retired_files"`
	FilesRemoved  int64        `json:"files_removed"`
	ActiveLeases  int          `json:"active_leases"`
	LeasesExpired int64        `json:"leases_expired"`
	Inflight      int          `json:"inflight_queries"`
	Queued        int          `json:"queued_queries"`
	Draining      bool         `json:"draining,omitempty"`
	Cursors       cursor.Stats `json:"cursors"`
	// SLOStates maps each objective to its alert state (ok, warning,
	// page); /slo has the full window breakdown.
	SLOStates map[string]string `json:"slo_states,omitempty"`
	// EventsDropped counts wide query events lost to backpressure.
	EventsDropped int64 `json:"wide_events_dropped,omitempty"`
	// Dict reports the dictionary-encoded resident layout: the term
	// dictionary itself plus the compressed sub-partition cache.
	Dict dictStats `json:"dict"`
}

// dictStats is the /stats "dict" sub-document.
type dictStats struct {
	Entries       int     `json:"entries"`
	ResidentBytes int64   `json:"resident_bytes"`
	BuildSeconds  float64 `json:"build_seconds"`
	CacheEntries  int     `json:"cache_entries"`
	CacheBytes    int64   `json:"cache_bytes"`
	CacheRawBytes int64   `json:"cache_raw_bytes"`
	Decodes       int64   `json:"decodes"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Stats()
	cur := s.store.Current()
	dv := cur.DictView()
	cacheN, cacheBytes, cacheRaw := cur.SubPartCacheStats()
	sloStates := make(map[string]string)
	for _, o := range s.cfg.SLO.Snapshot() {
		sloStates[o.Name] = o.State
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statsResponse{
		Epoch:         st.Epoch,
		Levels:        cur.NumLevels,
		Triples:       cur.TotalTriples(),
		SubPartitions: len(cur.SubPartitions()),
		PinnedQueries: st.PinnedQueries,
		PinnedEpochs:  st.PinnedEpochs,
		RetiredFiles:  st.RetiredFiles,
		FilesRemoved:  st.FilesRemoved,
		ActiveLeases:  st.ActiveLeases,
		LeasesExpired: st.LeasesExpired,
		Inflight:      len(s.sem),
		Queued:        len(s.queue),
		Draining:      s.draining.Load(),
		Cursors:       s.cursors.Stats(),
		SLOStates:     sloStates,
		EventsDropped: s.cfg.Events.Dropped(),
		Dict: dictStats{
			Entries:       dv.Len(),
			ResidentBytes: cur.Dict.ResidentBytes(),
			BuildSeconds:  cur.DictBuildTime().Seconds(),
			CacheEntries:  cacheN,
			CacheBytes:    cacheBytes,
			CacheRawBytes: cacheRaw,
			Decodes:       s.decodes.Value(),
		},
	})
}
