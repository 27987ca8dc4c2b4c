package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"ping/internal/obs"
	"ping/internal/sparql"
	"ping/internal/workload"
)

// TestResourceLedgerFlowsToResourcesAndEvents runs queries and checks
// the measured cost surfaces everywhere the tentpole promises: the
// /resources endpoint, the wide-event stream, and — replayed through
// workload.ReplayEvents — the offline profiler, with the ledger fields
// agreeing between live and replayed aggregates.
func TestResourceLedgerFlowsToResourcesAndEvents(t *testing.T) {
	eventBuf := &lockedBuffer{}
	reg := obs.NewRegistry()
	events := obs.NewEventLog(eventBuf, 64, reg)
	srv, ts, _ := newTestServer(t, serverConfig{Metrics: reg, Events: events, RowLimit: 5})

	const qs = `SELECT * WHERE { ?x <p0> ?y }`
	for i := 0; i < 3; i++ {
		resp, err := http.Get(queryURL(ts.URL, qs) + "&bindings=1")
		if err != nil {
			t.Fatal(err)
		}
		lines := readObsLines(t, resp.Body)
		resp.Body.Close()
		if last := lines[len(lines)-1]; !last.Done {
			t.Fatalf("query did not complete: %+v", last)
		}
	}

	// /resources serves the ledger aggregates.
	resp, err := http.Get(ts.URL + "/resources?top=5")
	if err != nil {
		t.Fatal(err)
	}
	var doc resourcesResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(doc.Top) == 0 {
		t.Fatal("/resources returned no fingerprints")
	}
	top := doc.Top[0]
	if top.Count != 3 {
		t.Errorf("top consumer count = %d, want 3", top.Count)
	}
	if top.TaskSeconds <= 0 {
		t.Errorf("task_seconds = %v, want > 0 (dataflow tasks ran)", top.TaskSeconds)
	}
	if top.RowsLoaded <= 0 {
		t.Errorf("rows_loaded = %d, want > 0", top.RowsLoaded)
	}
	if top.DictDecodes <= 0 {
		t.Errorf("dict_decodes = %d, want > 0 (bindings were decoded)", top.DictDecodes)
	}
	if top.CacheBytesPinned <= 0 {
		t.Errorf("cache_bytes_pinned = %d, want > 0", top.CacheBytesPinned)
	}
	if top.PeakRelationRows <= 0 {
		t.Errorf("peak_relation_rows = %d, want > 0", top.PeakRelationRows)
	}

	// ?top= validation and NDJSON mirror the /workload contract.
	if r, _ := http.Get(ts.URL + "/resources?top=bogus"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad top: status %d, want 400", r.StatusCode)
	}
	if r, err := http.Get(ts.URL + "/resources?format=ndjson"); err != nil || r.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Errorf("ndjson format: %v %q", err, r.Header.Get("Content-Type"))
	}

	// Wide events carry the ledger, and replay reconstructs the same
	// aggregates offline.
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadWideEvents(strings.NewReader(eventBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d wide events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.TaskMs <= 0 || ev.RowsLoaded <= 0 || ev.DictDecodes <= 0 || ev.CacheBytesPinned <= 0 || ev.PeakRelationRows <= 0 {
			t.Fatalf("wide event missing ledger fields: %+v", ev)
		}
	}
	replayed, n, err := workload.ReplayEvents(strings.NewReader(eventBuf.String()), workload.Options{Metrics: obs.NewRegistry()})
	if err != nil || n != 3 {
		t.Fatalf("replay: %v (%d events)", err, n)
	}
	live := srv.profiler.TopByCost(1)[0]
	rep := replayed.TopByCost(1)[0]
	if rep.Fingerprint != live.Fingerprint {
		t.Fatalf("replayed top fp %s, live %s", rep.Fingerprint, live.Fingerprint)
	}
	if rep.RowsLoaded != live.RowsLoaded || rep.BytesDecoded != live.BytesDecoded ||
		rep.StorageBytesRead != live.StorageBytesRead || rep.DictDecodes != live.DictDecodes ||
		rep.CacheBytesPinned != live.CacheBytesPinned || rep.PeakRelationRows != live.PeakRelationRows {
		t.Errorf("replayed ledger fields diverge:\nlive %+v\nrep  %+v", live, rep)
	}
	if math.Abs(rep.TaskSeconds-live.TaskSeconds) > 1e-6 {
		t.Errorf("replayed task_seconds %v, live %v", rep.TaskSeconds, live.TaskSeconds)
	}
}

// TestCostAdmissionShedsMeasuredExpensiveQueries: once a fingerprint's
// measured cost is known and the inflight cost budget is full, further
// queries of that class get 429 with reason "cost"; unknown
// fingerprints still admit.
func TestCostAdmissionShedsMeasuredExpensiveQueries(t *testing.T) {
	srv, ts, _ := newTestServer(t, serverConfig{
		AdmissionCPU: 100 * time.Millisecond,
		MaxInflight:  4,
	})

	const qs = `SELECT * WHERE { ?x <p0> ?y }`
	// Establish the fingerprint (count=1), then declare it expensive.
	resp, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	readObsLines(t, resp.Body)
	resp.Body.Close()
	q, _ := sparql.Parse(qs)
	fp := workload.FingerprintCanonical(workload.Canonical(q))
	srv.profiler.Observe(obs.WideEvent{Fingerprint: fp, TaskMs: 1000}) // ~0.5s per run >> 100ms budget

	if est := srv.profiler.EstimateCost(fp); est <= srv.cfg.AdmissionCPU {
		t.Fatalf("estimate %v not over budget %v", est, srv.cfg.AdmissionCPU)
	}

	// Hold one instance of the class inflight, stalled at its first step.
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce bool
	srv.setStepHook(func() {
		if !hookOnce {
			hookOnce = true
			close(entered)
			<-release
		}
	})
	defer srv.setStepHook(nil)
	errc := make(chan error, 1)
	go func() {
		r, err := http.Get(queryURL(ts.URL, qs))
		if err == nil {
			readObsLines(t, r.Body)
			r.Body.Close()
		}
		errc <- err
	}()
	<-entered

	// Second instance: the measured class would double-book the budget.
	r2, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{}
	_ = json.NewDecoder(r2.Body).Decode(&body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expensive class admitted: status %d (%v)", r2.StatusCode, body)
	}
	if body["reason"] != "cost" {
		t.Errorf(`reject reason = %v, want "cost"`, body["reason"])
	}
	if srv.costRejected.Value() != 1 {
		t.Errorf("pingd_cost_rejected_total = %d, want 1", srv.costRejected.Value())
	}

	// A different (unmeasured) fingerprint admits regardless.
	r3, err := http.Get(queryURL(ts.URL, `SELECT * WHERE { ?a <p1> ?b }`))
	if err != nil {
		t.Fatal(err)
	}
	readObsLines(t, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("unknown fingerprint shed: status %d", r3.StatusCode)
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// With the class no longer inflight, it admits again (cur == 0 always
	// admits: the budget sheds concurrency, not the class outright).
	r4, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	readObsLines(t, r4.Body)
	r4.Body.Close()
	if r4.StatusCode != http.StatusOK {
		t.Fatalf("lone over-budget query rejected: status %d", r4.StatusCode)
	}
}

// TestCostAdmissionShedsResume: a resumed segment reserves its
// fingerprint's measured cost like a fresh query, so it is shed with
// reason "cost" while the budget is full — and the shed hands the cursor
// back, so the same token resumes once the budget frees up.
func TestCostAdmissionShedsResume(t *testing.T) {
	srv, ts, _ := newTestServer(t, serverConfig{
		AdmissionCPU: 100 * time.Millisecond,
		MaxInflight:  4,
	})

	const qs = `SELECT * WHERE { ?x <p0> ?y }`
	// Measure the class (count=1), declare it expensive, and park one
	// lineage of it.
	resp, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	readObsLines(t, resp.Body)
	resp.Body.Close()
	q, _ := sparql.Parse(qs)
	fp := workload.FingerprintCanonical(workload.Canonical(q))
	srv.profiler.Observe(obs.WideEvent{Fingerprint: fp, TaskMs: 1000})
	paused := getRLines(t, queryURL(ts.URL, qs)+"&max_steps=1")
	token := paused[len(paused)-1].Cursor
	if !paused[len(paused)-1].Paused || token == "" {
		t.Fatalf("budgeted query did not pause: %+v", paused[len(paused)-1])
	}

	// Hold one instance of the class inflight, stalled at its first step.
	entered := make(chan struct{})
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free() // never leave the holder stalled, even on failure
	var hookOnce sync.Once
	srv.setStepHook(func() {
		hookOnce.Do(func() {
			close(entered)
			<-release
		})
	})
	defer srv.setStepHook(nil)
	errc := make(chan error, 1)
	go func() {
		r, err := http.Get(queryURL(ts.URL, qs))
		if err == nil {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
		errc <- err
	}()
	<-entered

	r2, err := http.Get(ts.URL + "/resume?cursor=" + url.QueryEscape(token))
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{}
	_ = json.NewDecoder(r2.Body).Decode(&body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests || body["reason"] != "cost" {
		t.Fatalf("resume over a full cost budget: status %d, body %v; want 429 reason cost", r2.StatusCode, body)
	}
	if srv.costRejected.Value() != 1 {
		t.Errorf("pingd_cost_rejected_total = %d, want 1", srv.costRejected.Value())
	}

	free()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// The shed left the cursor resumable: the same token completes.
	lines := getRLines(t, ts.URL+"/resume?cursor="+url.QueryEscape(token))
	if done := lines[len(lines)-1]; !done.Done || done.Segments != 2 {
		t.Fatalf("resume after the shed: %+v, want done in 2 segments", done)
	}
}

// TestAdminSplitListeners: with splitHandlers the query surface and the
// introspection surface are disjoint — /resources, /traces and the obs
// fallback (/metrics) answer only on the admin mux.
func TestAdminSplitListeners(t *testing.T) {
	srv, _, _ := newTestServer(t, serverConfig{Trace: true})
	public, admin := srv.splitHandlers(nil)
	pub := httptest.NewServer(public)
	adm := httptest.NewServer(admin)
	t.Cleanup(pub.Close)
	t.Cleanup(adm.Close)

	status := func(base, path string) int {
		t.Helper()
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		return r.StatusCode
	}

	if s := status(pub.URL, "/query?q="+"SELECT%20*%20WHERE%20%7B%20%3Fx%20%3Cp0%3E%20%3Fy%20%7D"); s != http.StatusOK {
		t.Errorf("public /query = %d, want 200", s)
	}
	for _, path := range []string{"/resources", "/traces", "/metrics"} {
		if s := status(pub.URL, path); s != http.StatusNotFound {
			t.Errorf("public %s = %d, want 404 (admin-only)", path, s)
		}
	}
	if s := status(adm.URL, "/resources"); s != http.StatusOK {
		t.Errorf("admin /resources = %d, want 200", s)
	}
	if s := status(adm.URL, "/traces"); s != http.StatusOK {
		t.Errorf("admin /traces = %d, want 200", s)
	}
	if s := status(adm.URL, "/metrics"); s != http.StatusOK {
		t.Errorf("admin /metrics = %d, want 200", s)
	}
}

// TestDashboardEscapesHostileStrings is the XSS regression for the
// dashboard: query text (attacker-controlled) is interpolated into
// HTML attribute values (title="..."), so the client-side esc() must
// neutralize quotes, not just angle brackets.
func TestDashboardEscapesHostileStrings(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})

	// A parseable query whose literal carries an attribute-breakout
	// payload: a double quote closes title="...", then an event handler.
	hostile := `SELECT * WHERE { ?x <p0> "x\" onmouseover='alert(1)'<img src=x>" }`
	resp, err := http.Get(queryURL(ts.URL, hostile))
	if err != nil {
		t.Fatal(err)
	}
	readObsLines(t, resp.Body)
	resp.Body.Close()

	// The hostile text really reaches the dashboard's data source.
	wl, err := http.Get(ts.URL + "/workload")
	if err != nil {
		t.Fatal(err)
	}
	var doc workloadResponse
	if err := json.NewDecoder(wl.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	wl.Body.Close()
	found := false
	for _, f := range doc.Fingerprints {
		if strings.Contains(f.Canonical, "onmouseover") {
			found = true
		}
	}
	if !found {
		t.Fatal("hostile query text never reached the workload snapshot — test is vacuous")
	}

	// The served dashboard's escaper neutralizes attribute breakouts:
	// both quote characters must be rewritten, and every attribute
	// interpolation must go through esc().
	page, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(page.Body)
	if err != nil {
		t.Fatal(err)
	}
	page.Body.Close()
	html := string(raw)
	for _, want := range []string{`&quot;`, `&#39;`} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard esc() does not emit %s — attribute injection is back", want)
		}
	}
	for i := 0; ; {
		j := strings.Index(html[i:], `title="' + `)
		if j < 0 {
			break
		}
		i += j + len(`title="' + `)
		if !strings.HasPrefix(html[i:], "esc(") {
			t.Errorf("unescaped interpolation into a title attribute at offset %d: %q", i, html[i:min(i+40, len(html))])
		}
	}
}
