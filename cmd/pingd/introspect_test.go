package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"ping/internal/engine"
	"ping/internal/ping"
	"ping/internal/sparql"
	"ping/internal/workload"
)

// TestWorkloadAggregatesAlphaEquivalent is the acceptance test of the
// workload profiler wiring: two syntactically different but α-equivalent
// queries served by /query aggregate under one fingerprint at /workload.
func TestWorkloadAggregatesAlphaEquivalent(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})

	const qa = `SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z }`
	const qb = `SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c }`
	for _, qs := range []string{qa, qb} {
		resp, err := http.Get(queryURL(ts.URL, qs))
		if err != nil {
			t.Fatal(err)
		}
		lines := readLines(t, resp.Body)
		resp.Body.Close()
		if done := lines[len(lines)-1]; !done.Done {
			t.Fatalf("query %q never finished: %+v", qs, done)
		}
	}

	resp, err := http.Get(ts.URL + "/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wl workloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Fingerprints) != 1 {
		t.Fatalf("got %d fingerprints, want 1 (α-equivalent queries must share one)", len(wl.Fingerprints))
	}
	st := wl.Fingerprints[0]
	if st.Count != 2 {
		t.Fatalf("fingerprint count = %d, want 2", st.Count)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(st.Fingerprint) {
		t.Fatalf("malformed fingerprint %q", st.Fingerprint)
	}
	if want := workload.Fingerprint(sparql.MustParse(qa)); st.Fingerprint != want {
		t.Fatalf("fingerprint %q, want %q", st.Fingerprint, want)
	}
	if st.Shape == "" || st.Canonical == "" {
		t.Fatalf("missing shape/canonical: %+v", st)
	}
	if st.MeanSteps <= 0 || st.LastAnswers <= 0 {
		t.Fatalf("per-run aggregates missing: %+v", st)
	}
	if len(st.Coverage) == 0 || st.Coverage[len(st.Coverage)-1] != 1 {
		t.Fatalf("coverage curve %v, want non-empty ending at 1", st.Coverage)
	}
	if st.MeanStepsToFirst <= 0 || st.MeanCoverageAtFirst <= 0 {
		t.Fatalf("first-answer aggregates missing: %+v", st)
	}

	// The NDJSON form round-trips through the snapshot reader.
	nr, err := http.Get(ts.URL + "/workload?top=1&format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer nr.Body.Close()
	stats, err := workload.ReadNDJSON(nr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Fingerprint != st.Fingerprint {
		t.Fatalf("NDJSON snapshot %+v, want the same single fingerprint", stats)
	}
}

// TestExplainHandler covers /explain in both static and ?analyze=1
// modes, both formats, and the 400 paths.
func TestExplainHandler(t *testing.T) {
	_, ts, g := newTestServer(t, serverConfig{})

	const qs = `SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z }`
	oracle := engine.Naive(g, sparql.MustParse(qs)).Distinct().Card()
	explainURL := func(extra string) string {
		return ts.URL + "/explain?q=" + url.QueryEscape(qs) + extra
	}

	resp, err := http.Get(explainURL(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d", resp.StatusCode)
	}
	var plan ping.Plan
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	if plan.Analyzed {
		t.Fatal("static explain must not run the query")
	}
	if !plan.Safe || len(plan.Steps) == 0 || len(plan.Patterns) != 2 {
		t.Fatalf("implausible plan: %+v", plan)
	}
	if plan.Fingerprint != workload.Fingerprint(sparql.MustParse(qs)) {
		t.Fatalf("plan fingerprint %q not the workload fingerprint", plan.Fingerprint)
	}

	ar, err := http.Get(explainURL("&analyze=1"))
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Body.Close()
	var analyzed ping.Plan
	if err := json.NewDecoder(ar.Body).Decode(&analyzed); err != nil {
		t.Fatal(err)
	}
	if !analyzed.Analyzed || !analyzed.Exact {
		t.Fatalf("analyze did not run: %+v", analyzed)
	}
	if analyzed.Answers != oracle {
		t.Fatalf("analyzed answers %d, want oracle %d", analyzed.Answers, oracle)
	}
	last := analyzed.Steps[len(analyzed.Steps)-1]
	if last.Coverage != 1 || last.ActualRows < 0 {
		t.Fatalf("last analyzed step %+v, want coverage 1", last)
	}

	tr, err := http.Get(explainURL("&format=text"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if !strings.Contains(string(body), "EXPLAIN") || !strings.Contains(string(body), "join order:") {
		t.Fatalf("text plan missing sections:\n%s", body)
	}

	for _, u := range []string{ts.URL + "/explain", ts.URL + "/explain?q=NOT+SPARQL"} {
		br, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, br.Body)
		br.Body.Close()
		if br.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", u, br.StatusCode)
		}
	}
}

// TestStreamingFlushWithTracing verifies that with tracing enabled each
// step line is flushed to the client before the run continues, and that
// the completed trace tree (query → pqa → slice) lands in /traces.
func TestStreamingFlushWithTracing(t *testing.T) {
	srv, ts, _ := newTestServer(t, serverConfig{Trace: true})

	const qs = `SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`
	firstStep := make(chan struct{})
	gate := make(chan struct{})
	released := false
	srv.setStepHook(func() {
		select {
		case <-firstStep:
		default:
			close(firstStep)
			<-gate
		}
	})
	defer func() {
		if !released {
			close(gate)
		}
	}()

	resp, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	select {
	case <-firstStep:
	case <-time.After(10 * time.Second):
		t.Fatal("query never delivered its first step")
	}

	// The run is parked inside the hook; the first step line must already
	// be readable — per-step flushing survives the instrumentation and
	// tracing wrappers.
	type read struct {
		line string
		err  error
	}
	rc := make(chan read, 1)
	br := bufio.NewReader(resp.Body)
	go func() {
		l, err := br.ReadString('\n')
		rc <- read{l, err}
	}()
	select {
	case r := <-rc:
		if r.err != nil {
			t.Fatalf("reading first step line: %v", r.err)
		}
		var l line
		if err := json.Unmarshal([]byte(r.line), &l); err != nil {
			t.Fatalf("first line not JSON: %q", r.line)
		}
		if l.Step != 1 {
			t.Fatalf("first flushed line is step %d, want 1", l.Step)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("step line was not flushed while the run is mid-flight")
	}

	released = true
	close(gate)
	srv.setStepHook(nil)
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatal(err)
	}

	tresp, err := http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	raw, _ := io.ReadAll(tresp.Body)
	var traces struct {
		Dropped int64             `json:"dropped"`
		Traces  []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(raw, &traces); err != nil {
		t.Fatalf("bad /traces document: %v\n%s", err, raw)
	}
	if len(traces.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces.Traces))
	}
	tree := string(traces.Traces[0])
	for _, want := range []string{`"name": "query"`, `"name": "pqa"`, `"name": "slice"`, `"fingerprint"`} {
		if !strings.Contains(tree, want) {
			t.Fatalf("trace tree missing %s:\n%s", want, tree)
		}
	}
}

// TestTracesDisabled: without -trace the endpoint 404s instead of
// serving an empty document.
func TestTracesDisabled(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/traces status %d, want 404", resp.StatusCode)
	}
}

// TestSlowQueryLogEndToEnd is the acceptance test of the slow-query log:
// a query over the threshold emits exactly one NDJSON record, a query
// under it emits none.
func TestSlowQueryLogEndToEnd(t *testing.T) {
	const qs = `SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z }`

	// Threshold 1ns: every real query is over it.
	var buf bytes.Buffer
	slow := workload.NewSlowLog(&buf, time.Nanosecond)
	_, ts, _ := newTestServer(t, serverConfig{SlowLog: slow})
	resp, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, resp.Body)
	resp.Body.Close()
	done := lines[len(lines)-1]

	if got := slow.Emitted(); got != 1 {
		t.Fatalf("slow log emitted %d records, want exactly 1", got)
	}
	recs := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(recs) != 1 {
		t.Fatalf("slow log holds %d lines, want exactly 1:\n%s", len(recs), buf.String())
	}
	var rec workload.SlowQuery
	if err := json.Unmarshal([]byte(recs[0]), &rec); err != nil {
		t.Fatalf("bad slow-log record: %v\n%s", err, recs[0])
	}
	if rec.Fingerprint != workload.Fingerprint(sparql.MustParse(qs)) {
		t.Fatalf("record fingerprint %q not the query's", rec.Fingerprint)
	}
	if rec.Query != qs || rec.Canonical == "" {
		t.Fatalf("record query/canonical wrong: %+v", rec)
	}
	if rec.LatencyMs <= 0 || rec.ThresholdMs > rec.LatencyMs {
		t.Fatalf("record timings wrong: %+v", rec)
	}
	if rec.Plan == nil || rec.Plan.Steps != done.Steps || len(rec.StepMs) != done.Steps {
		t.Fatalf("record plan/step timings don't match the run (%d steps): %+v", done.Steps, rec)
	}
	if rec.Answers != done.Answers || rec.Error != "" {
		t.Fatalf("record outcome doesn't match the run: %+v", rec)
	}

	// Threshold 1h: the same query emits nothing.
	var quiet bytes.Buffer
	slow2 := workload.NewSlowLog(&quiet, time.Hour)
	_, ts2, _ := newTestServer(t, serverConfig{SlowLog: slow2})
	resp2, err := http.Get(queryURL(ts2.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	readLines(t, resp2.Body)
	resp2.Body.Close()
	if slow2.Emitted() != 0 || quiet.Len() != 0 {
		t.Fatalf("fast query logged as slow:\n%s", quiet.String())
	}
}

// TestDashboardHandler: the dashboard serves self-contained HTML that
// polls the JSON endpoints.
func TestDashboardHandler(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dashboard status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q, want text/html", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"pingd dashboard", "/workload?top=15", "/stats", "<svg"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("dashboard HTML missing %q", want)
		}
	}
}
