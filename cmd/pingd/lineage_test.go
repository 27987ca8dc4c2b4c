package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ping/internal/engine"
	"ping/internal/obs"
	"ping/internal/obs/slo"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/workload"
)

// TestWideEventCoversEverySegment: the wide event of a lineage that
// paused twice carries the work of all three segments — one step time
// per lineage step, and every binding decoded on the way.
func TestWideEventCoversEverySegment(t *testing.T) {
	eventBuf := &lockedBuffer{}
	reg := obs.NewRegistry()
	events := obs.NewEventLog(eventBuf, 64, reg)
	_, ts, _ := newTestServer(t, serverConfig{Metrics: reg, Events: events, RowLimit: 5})

	const qs = `SELECT * WHERE { ?x <p0> ?y }`
	// Each segment's body: its lines plus how many terms its bindings
	// decoded.
	segment := func(u string) (last rline, decoded int) {
		t.Helper()
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var l struct {
				rline
				Bindings []map[string]string `json:"bindings"`
			}
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if l.Error != "" {
				t.Fatalf("in-band error: %s", l.Error)
			}
			for _, b := range l.Bindings {
				decoded += len(b)
			}
			last = l.rline
		}
		return last, decoded
	}

	last, decoded := segment(queryURL(ts.URL, qs) + "&bindings=1&max_steps=1")
	for _, budget := range []string{"&max_steps=1", ""} {
		if !last.Paused {
			t.Fatalf("segment ended without pausing: %+v (the query needs 3+ steps)", last)
		}
		var n int
		last, n = segment(ts.URL + "/resume?bindings=1&cursor=" + url.QueryEscape(last.Cursor) + budget)
		decoded += n
	}
	if !last.Done || last.Segments != 3 {
		t.Fatalf("lineage did not complete in 3 segments: %+v", last)
	}
	if decoded == 0 {
		t.Fatal("no bindings emitted — test is vacuous")
	}

	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadWideEvents(strings.NewReader(eventBuf.String()))
	if err != nil || len(evs) != 1 {
		t.Fatalf("want one wide event, got %d (%v)", len(evs), err)
	}
	ev := evs[0]
	if ev.Segments != 3 || ev.Steps != last.Steps {
		t.Fatalf("event segments/steps %d/%d, want 3/%d", ev.Segments, ev.Steps, last.Steps)
	}
	if len(ev.StepMs) != ev.Steps || len(ev.Coverage) != ev.Steps {
		t.Fatalf("step_ms %d / coverage %d entries for %d steps", len(ev.StepMs), len(ev.Coverage), ev.Steps)
	}
	if ev.DictDecodes != int64(decoded) {
		t.Fatalf("dict_decodes %d, want %d (every segment's bindings)", ev.DictDecodes, decoded)
	}
	if ev.SubParts == 0 || ev.MaxLevel == 0 || ev.BudgetExhaustedStep != 2 {
		t.Fatalf("subparts %d, max_level %d, budget_exhausted_step %d (want 2)",
			ev.SubParts, ev.MaxLevel, ev.BudgetExhaustedStep)
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestStepLineDecodesOnlyEmittedRows: with bindings on, a step line
// decodes the RowLimit rows it carries — the same rows as before — and
// its cost does not grow with the cumulative answer relation.
func TestStepLineDecodesOnlyEmittedRows(t *testing.T) {
	srv, _, _ := newTestServer(t, serverConfig{RowLimit: 5})
	dict := srv.store.Current().DictView()
	answers := func(n int) *engine.Relation {
		rel := &engine.Relation{Vars: []string{"x", "y"}}
		for i := 0; i < n; i++ {
			rel.Rows = append(rel.Rows, []rdf.ID{rdf.ID(i % dict.Len()), rdf.ID((i + 1) % dict.Len())})
		}
		return rel
	}
	line := func(rel *engine.Relation, w io.Writer) func() {
		g := &segment{s: srv, enc: json.NewEncoder(w), dict: dict, wantBindings: true}
		fn := g.step(context.Background())
		return func() {
			g.rec.StepMs, g.rec.StepAnswers = g.rec.StepMs[:0], g.rec.StepAnswers[:0]
			fn(ping.StepResult{Step: 1, Answers: rel}, nil)
		}
	}

	rel := answers(10_000)
	out := &strings.Builder{}
	line(rel, out)()
	var got stepLine
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatal(err)
	}
	var want []map[string]string
	for _, row := range rel.BindingMaps()[:srv.cfg.RowLimit] {
		m := make(map[string]string, len(row))
		for v, id := range row {
			m[v] = dict.TermString(id)
		}
		want = append(want, m)
	}
	if !reflect.DeepEqual(got.Bindings, want) {
		t.Fatalf("bindings changed:\n got %v\nwant %v", got.Bindings, want)
	}

	allocs := func(n int) float64 { return testing.AllocsPerRun(50, line(answers(n), io.Discard)) }
	small, large := allocs(10), allocs(10_000)
	// The race detector's sync.Pool drops pooled encoder state at
	// random, so there the counts may differ by a few.
	if small != large && !(raceEnabled && large <= small+3) {
		t.Fatalf("one step line allocates %v times over 10 answers but %v over 10 000", small, large)
	}
}

// TestLiveRecordsEqualEventReplay runs a mix of lineages — fresh,
// budgeted and resumed, restarted after lease expiry, and failed — and
// checks that the live /workload, /resources and /slo are exactly what
// the emitted wide-event stream replays to offline.
func TestLiveRecordsEqualEventReplay(t *testing.T) {
	eventBuf := &lockedBuffer{}
	reg := obs.NewRegistry()
	events := obs.NewEventLog(eventBuf, 64, reg)
	clk := &fakeSLOClock{t: time.Date(2026, 1, 2, 12, 0, 0, 0, time.UTC)}
	srv, ts, _ := newTestServer(t, serverConfig{
		Metrics:     reg,
		Events:      events,
		SLO:         slo.NewEngine(reg, defaultObjectives()...).WithClock(clk.now),
		RowLimit:    5,
		MaxInflight: 2,
		CursorTTL:   time.Hour,
	})
	var (
		mu     sync.Mutex
		offset time.Duration
	)
	srv.store.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return time.Now().Add(offset)
	})

	const (
		star  = `SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`
		chain = `SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`
	)
	resumeAll := func(lines []rline, budget string) rline {
		t.Helper()
		for last := lines[len(lines)-1]; ; last = lines[len(lines)-1] {
			if last.Done {
				return last
			}
			if !last.Paused {
				t.Fatalf("segment ended without pause or done: %+v", last)
			}
			lines = getRLines(t, ts.URL+"/resume?cursor="+url.QueryEscape(last.Cursor)+budget)
		}
	}

	// Fresh, with and without bindings and budgets that never bind.
	getRLines(t, queryURL(ts.URL, star)+"&bindings=1")
	getRLines(t, queryURL(ts.URL, chain)+"&max_steps=100")
	// Budgeted and resumed one step per segment.
	if done := resumeAll(getRLines(t, queryURL(ts.URL, chain)+"&max_steps=1&bindings=1"), "&max_steps=1"); done.Segments < 2 {
		t.Fatalf("budgeted lineage did not resume: %+v", done)
	}
	// Paused, its lease expired, the data changed: the resume restarts.
	paused := getRLines(t, queryURL(ts.URL, star)+"&max_steps=1")
	mu.Lock()
	offset = srv.cursors.TTL() + time.Minute
	mu.Unlock()
	ur, err := http.Post(ts.URL+"/update?op=add", "application/n-triples",
		strings.NewReader("<s0> <p1> <s1> .\n<s300> <p0> <s0> .\n<s300> <p1> <s2> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ur.Body)
	ur.Body.Close()
	if done := resumeAll(paused, ""); !done.Restarted {
		t.Fatalf("resume after lease expiry did not restart: %+v", done)
	}
	// Failed: the sub-partition files are gone, and the policy is
	// failfast (p4 was never queried, so none of it is cached).
	fs := srv.store.Current().FS()
	for _, fi := range fs.List("levels/") {
		if err := fs.Remove(fi.Path); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(queryURL(ts.URL, `SELECT * WHERE { ?a <p4> ?b }`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"error"`) {
		t.Fatalf("query over removed storage did not fail: %s", body)
	}

	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadWideEvents(strings.NewReader(eventBuf.String()))
	if err != nil || len(evs) != 5 {
		t.Fatalf("want 5 lineage events, got %d (%v)", len(evs), err)
	}
	if evs[4].Error == "" || evs[2].Segments < 2 || evs[3].ResumedFrom == "" {
		t.Fatalf("event stream lacks the failed or resumed lineages: %+v", evs)
	}

	// /workload and /resources equal the replayed profiler, field for
	// field (both sides through the same JSON encoding).
	replayed, n, err := workload.ReplayEvents(strings.NewReader(eventBuf.String()), workload.Options{Metrics: obs.NewRegistry()})
	if err != nil || n != len(evs) {
		t.Fatalf("replay: %v (%d events)", err, n)
	}
	sameJSON := func(path string, live any, want any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(live); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		norm := reflect.New(reflect.TypeOf(want)).Interface()
		if err := json.Unmarshal(raw, norm); err != nil {
			t.Fatal(err)
		}
		if got := reflect.ValueOf(live).Elem().Interface(); !reflect.DeepEqual(got, reflect.ValueOf(norm).Elem().Interface()) {
			t.Errorf("live %s diverges from the event replay:\nlive   %+v\nreplay %+v", path, got, want)
		}
	}
	sameJSON("/workload", &workloadResponse{},
		workloadResponse{Fingerprints: replayed.Top(0), Dropped: replayed.Dropped()})
	sameJSON("/resources?top=10", &resourcesResponse{},
		resourcesResponse{Top: replayed.TopByCost(10), Dropped: replayed.Dropped()})

	// /slo equals the replayed events fed through slo.EventFromWide.
	offline := slo.NewEngine(obs.NewRegistry(), defaultObjectives()...).WithClock(clk.now)
	for _, ev := range evs {
		offline.Observe(slo.EventFromWide(ev))
	}
	sameJSON("/slo", &sloResponse{}, sloResponse{Objectives: offline.Snapshot()})
}
