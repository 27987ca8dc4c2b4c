package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"ping/internal/cursor"
	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// rline is the union of all NDJSON line shapes, cursor fields included.
type rline struct {
	Step         int    `json:"step"`
	Epoch        uint64 `json:"epoch"`
	Answers      int    `json:"answers"`
	Cursor       string `json:"cursor"`
	Done         bool   `json:"done"`
	Steps        int    `json:"steps"`
	Exact        bool   `json:"exact"`
	Segments     int    `json:"segments"`
	Restarted    bool   `json:"restarted"`
	Paused       bool   `json:"paused"`
	Reason       string `json:"reason"`
	PlannedSteps int    `json:"planned_steps"`
	Error        string `json:"error"`
}

func readRLines(t *testing.T, body io.Reader) []rline {
	t.Helper()
	var out []rline
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l rline
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if l.Error != "" {
			t.Fatalf("in-band error: %s", l.Error)
		}
		out = append(out, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func getRLines(t *testing.T, u string) []rline {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", u, resp.StatusCode, b)
	}
	return readRLines(t, resp.Body)
}

// TestBudgetPauseAndResumeServer drives a query through the HTTP surface
// one step per segment: every /query and /resume response must end in a
// paused line with a usable cursor until the final segment completes
// with the oracle answer set — and the completed lineage must release
// every pin and count once in the workload profiler.
func TestBudgetPauseAndResumeServer(t *testing.T) {
	srv, ts, g := newTestServer(t, serverConfig{MaxInflight: 2, MaxQueue: 2})

	const qs = `SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`
	oracle := engine.Naive(g, sparql.MustParse(qs)).Distinct().Card()

	// Uninterrupted run first: total steps and the reference answer count.
	full := getRLines(t, queryURL(ts.URL, qs))
	fdone := full[len(full)-1]
	if !fdone.Done || fdone.Answers != oracle {
		t.Fatalf("uninterrupted run: %+v, want done with %d answers", fdone, oracle)
	}
	totalSteps := fdone.Steps
	if totalSteps < 2 {
		t.Fatalf("need a multi-step query, got %d steps", totalSteps)
	}

	lines := getRLines(t, queryURL(ts.URL, qs)+"&max_steps=1")
	segments := 1
	var done rline
	for {
		last := lines[len(lines)-1]
		if last.Done {
			done = last
			break
		}
		if !last.Paused || last.Cursor == "" {
			t.Fatalf("segment %d ended without pause or cursor: %+v", segments, last)
		}
		if last.Reason != "budget-steps" {
			t.Fatalf("segment %d pause reason %q, want budget-steps", segments, last.Reason)
		}
		if last.Steps != segments {
			t.Fatalf("segment %d paused at lineage step %d", segments, last.Steps)
		}
		// Every step line must carry a resume token too.
		for _, l := range lines {
			if !l.Paused && !l.Done && l.Cursor == "" {
				t.Fatalf("step line without cursor token: %+v", l)
			}
		}
		lines = getRLines(t, ts.URL+"/resume?cursor="+url.QueryEscape(last.Cursor)+"&max_steps=1")
		segments++
		if first := lines[0]; first.Step != last.Steps+1 {
			t.Fatalf("segment %d resumed at step %d, want %d", segments, first.Step, last.Steps+1)
		}
		if segments > totalSteps+2 {
			t.Fatalf("lineage did not terminate after %d segments", segments)
		}
	}
	if segments != totalSteps {
		t.Fatalf("lineage took %d segments, want one per step (%d)", segments, totalSteps)
	}
	if done.Answers != oracle || !done.Exact {
		t.Fatalf("resumed lineage done: %+v, want exact %d answers", done, oracle)
	}
	if done.Segments != totalSteps {
		t.Fatalf("done line reports %d segments, want %d", done.Segments, totalSteps)
	}

	// Everything released: no cursors, no leases, no pins.
	if cs := srv.cursors.Stats(); cs.Active != 0 {
		t.Fatalf("cursors still active after completion: %+v", cs)
	}
	st := srv.store.Stats()
	if st.ActiveLeases != 0 || st.PinnedQueries != 0 {
		t.Fatalf("store still pinned after completion: %+v", st)
	}

	// The lineage counts ONCE in the workload profiler (the uninterrupted
	// run is a second observation of the same fingerprint), with the
	// segment count averaged in.
	snap := srv.profiler.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("profiler tracks %d fingerprints, want 1", len(snap))
	}
	fs := snap[0]
	if fs.Count != 2 {
		t.Fatalf("fingerprint count %d, want 2 (one per lineage, not per segment)", fs.Count)
	}
	wantMean := float64(1+totalSteps) / 2
	if fs.MeanSegments != wantMean {
		t.Fatalf("mean segments %v, want %v", fs.MeanSegments, wantMean)
	}
}

// TestResumeAfterDisconnect drops the client mid-run and resumes from
// the token on the last delivered step line.
func TestResumeAfterDisconnect(t *testing.T) {
	srv, ts, g := newTestServer(t, serverConfig{MaxInflight: 2})

	const qs = `SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`
	oracle := engine.Naive(g, sparql.MustParse(qs)).Distinct().Card()

	firstStep := make(chan struct{})
	gate := make(chan struct{})
	srv.setStepHook(func() {
		select {
		case <-firstStep:
		default:
			close(firstStep)
			<-gate
		}
	})

	resp, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-firstStep:
	case <-time.After(10 * time.Second):
		t.Fatal("query never delivered its first step")
	}
	// The first line is already flushed; read it, then vanish.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first step line")
	}
	var step1 rline
	if err := json.Unmarshal(sc.Bytes(), &step1); err != nil {
		t.Fatal(err)
	}
	if step1.Cursor == "" {
		t.Fatalf("first step line has no cursor token: %+v", step1)
	}
	resp.Body.Close() // disconnect: cancels the request context
	// Give the cancellation a moment to propagate to the handler before
	// unblocking it; if it loses the race anyway, the run just pauses a
	// step or two later — the assertions below only need SOME completed
	// prefix to be parked.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	srv.setStepHook(nil)

	// The handler notices at the next step boundary and parks the run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cs := srv.cursors.Stats(); cs.Active == 1 && cs.Busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnected query never parked: %+v", srv.cursors.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	lines := getRLines(t, ts.URL+"/resume?cursor="+url.QueryEscape(step1.Cursor))
	done := lines[len(lines)-1]
	if !done.Done || done.Answers != oracle || !done.Exact {
		t.Fatalf("resume after disconnect: %+v, want exact %d answers", done, oracle)
	}
	if done.Segments != 2 || done.Restarted {
		t.Fatalf("done line %+v, want 2 segments without restart", done)
	}
	if lines[0].Step < 2 {
		t.Fatalf("resume started at step %d; the pre-disconnect prefix was lost", lines[0].Step)
	}
}

// TestOverloadResponse pins the 429 contract: Retry-After header plus a
// machine-readable JSON body.
func TestOverloadResponse(t *testing.T) {
	srv, ts, _ := newTestServer(t, serverConfig{MaxInflight: 1, MaxQueue: 0})

	const qs = `SELECT * WHERE { ?x <p0> ?y }`
	firstStep := make(chan struct{})
	gate := make(chan struct{})
	srv.setStepHook(func() {
		select {
		case <-firstStep:
		default:
			close(firstStep)
			<-gate
		}
	})
	defer close(gate)

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

	resp2, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp2.StatusCode)
	}
	if ra := resp2.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var body struct {
		Error string `json:"error"`
		Queue int    `json:"queue"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatalf("429 body is not JSON: %v", err)
	}
	if body.Error != "overloaded" {
		t.Fatalf("429 body %+v, want error=overloaded", body)
	}
}

// TestResumeValidation covers the /resume error statuses.
func TestResumeValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})

	cases := []struct {
		url  string
		want int
	}{
		{ts.URL + "/resume", http.StatusBadRequest},                             // no token
		{ts.URL + "/resume?cursor=garbage", http.StatusBadRequest},              // unparsable
		{ts.URL + "/resume?cursor=pqc.AAAA", http.StatusBadRequest},             // truncated
		{ts.URL + "/resume?cursor=" + mintUnknownToken(t), http.StatusNotFound}, // well-formed, unknown
	}
	for _, c := range cases {
		resp, err := http.Get(c.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
}

func mintUnknownToken(t *testing.T) string {
	t.Helper()
	id, err := cursor.NewID()
	if err != nil {
		t.Fatal(err)
	}
	return url.QueryEscape(cursor.Token(id, 1))
}

// TestDrainCheckpointRestart is the crash-survival path end to end: a
// SIGTERM-style drain pauses an in-flight query as a cursor, the cursor
// hibernates to the on-disk store, the whole daemon is torn down, a new
// daemon reopens the store cold — and the client's token still resumes
// the lineage to the exact oracle answer set, without a restart (the
// reloaded layout's signature matches the checkpoint).
func TestDrainCheckpointRestart(t *testing.T) {
	g := testGraph(1, 60, 5)
	dir := t.TempDir()
	fs, err := dfs.NewOnDisk(dir, dfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := hpart.Partition(g, hpart.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := lay.SaveDict(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveManifest(); err != nil {
		t.Fatal(err)
	}

	const qs = `SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`
	oracle := engine.Naive(g, sparql.MustParse(qs)).Distinct().Card()

	srv, err := newServer(hpart.NewStore(lay), serverConfig{
		MaxInflight: 2, Persist: fs, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler(nil))

	firstStep := make(chan struct{})
	gate := make(chan struct{})
	srv.setStepHook(func() {
		select {
		case <-firstStep:
		default:
			close(firstStep)
			<-gate
		}
	})

	resp, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-firstStep:
	case <-time.After(10 * time.Second):
		t.Fatal("query never delivered its first step")
	}
	// SIGTERM arrives: drain, let the run pause at its next boundary.
	srv.beginDrain()
	close(gate)
	srv.setStepHook(nil)

	lines := readRLines(t, resp.Body)
	resp.Body.Close()
	paused := lines[len(lines)-1]
	if !paused.Paused || paused.Reason != "draining" || paused.Cursor == "" {
		t.Fatalf("drained query did not pause with a cursor: %+v", paused)
	}

	// Shutdown path: hibernate everything, then kill the process.
	n, err := srv.cursors.HibernateAll()
	if err != nil || n != 1 {
		t.Fatalf("HibernateAll = (%d, %v), want (1, nil)", n, err)
	}
	ts.Close()

	// Cold restart: reopen the store from disk into a brand-new server.
	fs2, err := dfs.OpenOnDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	lay2, err := hpart.Load(fs2, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := newServer(hpart.NewStore(lay2), serverConfig{
		MaxInflight: 2, Persist: fs2, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.handler(nil))
	defer ts2.Close()

	res := getRLines(t, ts2.URL+"/resume?cursor="+url.QueryEscape(paused.Cursor))
	done := res[len(res)-1]
	if !done.Done || done.Answers != oracle || !done.Exact {
		t.Fatalf("resume across restart: %+v, want exact %d answers", done, oracle)
	}
	if done.Restarted {
		t.Fatal("unchanged store resumed with restarted:true; layout signature check is broken")
	}
	if res[0].Step != paused.Steps+1 {
		t.Fatalf("post-restart resume started at step %d, want %d", res[0].Step, paused.Steps+1)
	}
	if cs := srv2.cursors.Stats(); cs.Active != 0 {
		t.Fatalf("cursor not retired after completion: %+v", cs)
	}
}

// TestExpiredLeaseRestartsOnCurrentEpoch exercises the lease-expiry
// contract: a paused cursor whose TTL lease has lapsed must not block
// epoch GC, and resuming it after the data changed restarts the lineage
// on the current snapshot with restarted:true and the NEW oracle answers.
func TestExpiredLeaseRestartsOnCurrentEpoch(t *testing.T) {
	srv, ts, g := newTestServer(t, serverConfig{MaxInflight: 2, CursorTTL: time.Hour})

	var (
		mu     sync.Mutex
		offset time.Duration
	)
	srv.store.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return time.Now().Add(offset)
	})

	const qs = `SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`

	lines := getRLines(t, queryURL(ts.URL, qs)+"&max_steps=1")
	paused := lines[len(lines)-1]
	if !paused.Paused || paused.Cursor == "" {
		t.Fatalf("budgeted query did not pause: %+v", paused)
	}
	if st := srv.store.Stats(); st.ActiveLeases != 1 {
		t.Fatalf("paused cursor holds %d leases, want 1", st.ActiveLeases)
	}

	// The client dies. Its lease outlives it only until the TTL.
	mu.Lock()
	offset = srv.cursors.TTL() + time.Minute
	mu.Unlock()

	// An update publishes a new epoch; the expired lease must not pin the
	// old one.
	delta := "<s0> <p0> <s1> .\n<s1> <p0> <s2> .\n<s200> <p0> <s0> .\n"
	ur, err := http.Post(ts.URL+"/update?op=add", "application/n-triples", strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ur.Body)
	ur.Body.Close()
	if ur.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", ur.StatusCode)
	}
	st := srv.store.Stats()
	if st.LeasesExpired < 1 {
		t.Fatalf("expired lease not collected: %+v", st)
	}
	if st.RetiredFiles != 0 {
		t.Fatalf("expired lease still blocks GC: %d retired files held", st.RetiredFiles)
	}

	// Oracle on the updated graph.
	g.Add(rdf.NewIRI("s0"), rdf.NewIRI("p0"), rdf.NewIRI("s1"))
	g.Add(rdf.NewIRI("s1"), rdf.NewIRI("p0"), rdf.NewIRI("s2"))
	g.Add(rdf.NewIRI("s200"), rdf.NewIRI("p0"), rdf.NewIRI("s0"))
	oracle := engine.Naive(g, sparql.MustParse(qs)).Distinct().Card()

	res := getRLines(t, ts.URL+"/resume?cursor="+url.QueryEscape(paused.Cursor))
	done := res[len(res)-1]
	if !done.Done || !done.Restarted {
		t.Fatalf("resume after expiry: %+v, want done with restarted:true", done)
	}
	if done.Answers != oracle {
		t.Fatalf("restarted lineage answered %d, want current-epoch oracle %d", done.Answers, oracle)
	}
	if done.Epoch != 1 {
		t.Fatalf("restarted lineage ran on epoch %d, want 1", done.Epoch)
	}
	// Every line of the restarted segment is marked.
	for _, l := range res {
		if !l.Restarted {
			t.Fatalf("restarted segment line without restarted flag: %+v", l)
		}
	}
	if cs := srv.cursors.Stats(); cs.Active != 0 {
		t.Fatalf("cursor not retired: %+v", cs)
	}
	if st := srv.store.Stats(); st.ActiveLeases != 0 || st.PinnedQueries != 0 {
		t.Fatalf("pins left after restarted completion: %+v", st)
	}
}

// TestBudgetRowsAndDeadlineParams sanity-checks the other two budget
// dimensions through the HTTP surface.
func TestBudgetRowsAndDeadlineParams(t *testing.T) {
	_, ts, g := newTestServer(t, serverConfig{MaxInflight: 2})

	const qs = `SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`
	oracle := engine.Naive(g, sparql.MustParse(qs)).Distinct().Card()

	// A 1-row budget still makes progress (at least one step per segment)
	// and the lineage still terminates with the oracle answers.
	lines := getRLines(t, queryURL(ts.URL, qs)+"&max_rows=1")
	segs := 1
	for !lines[len(lines)-1].Done {
		last := lines[len(lines)-1]
		if !last.Paused || last.Reason != "budget-rows" {
			t.Fatalf("segment ended oddly: %+v", last)
		}
		lines = getRLines(t, ts.URL+"/resume?cursor="+url.QueryEscape(last.Cursor)+"&max_rows=1")
		if segs++; segs > 50 {
			t.Fatal("row-budgeted lineage did not terminate")
		}
	}
	if done := lines[len(lines)-1]; done.Answers != oracle {
		t.Fatalf("row-budgeted lineage answered %d, want %d", done.Answers, oracle)
	}

	// Bad budget values are 400s.
	for _, bad := range []string{"&max_steps=x", "&max_rows=-1", "&deadline=soon"} {
		resp, err := http.Get(queryURL(ts.URL, qs) + bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("budget %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
