package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// testGraph builds subjects with nested characteristic sets (s<i> has
// properties p0..p<d-1>) so the partition spans several levels and PQA
// runs take several steps.
func testGraph(seed int64, subjects, depth int) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph()
	for s := 0; s < subjects; s++ {
		subj := rdf.NewIRI(fmt.Sprintf("s%d", s))
		d := 1 + rng.Intn(depth)
		for i := 0; i < d; i++ {
			obj := rdf.NewIRI(fmt.Sprintf("s%d", rng.Intn(subjects)))
			g.Add(subj, rdf.NewIRI(fmt.Sprintf("p%d", i)), obj)
		}
	}
	return g
}

func newTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server, *rdf.Graph) {
	t.Helper()
	// Every integration test doubles as a goroutine-leak check: the
	// verification cleanup registers first, so it runs last — after the
	// httptest server (and everything the test itself cleans up) shut
	// down.
	obs.VerifyNoLeaks(t)
	g := testGraph(1, 60, 5)
	lay, err := hpart.Partition(g, hpart.Options{FS: dfs.New(dfs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	srv, err := newServer(hpart.NewStore(lay), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler(nil))
	t.Cleanup(ts.Close)
	return srv, ts, g
}

// line is the union of the NDJSON line shapes a /query response emits.
type line struct {
	Step    int    `json:"step"`
	Epoch   uint64 `json:"epoch"`
	Answers int    `json:"answers"`
	Done    bool   `json:"done"`
	Steps   int    `json:"steps"`
	Exact   bool   `json:"exact"`
	Error   string `json:"error"`
}

func queryURL(base, q string) string {
	return base + "/query?q=" + url.QueryEscape(q)
}

func readLines(t *testing.T, body io.Reader) []line {
	t.Helper()
	var out []line
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
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

// TestStreamingQueryWithMidFlightUpdate is the integration test of the
// tentpole: a streaming query keeps delivering sound steps from its
// pinned epoch while an update publishes a new epoch mid-flight; a query
// admitted afterwards sees the new epoch.
func TestStreamingQueryWithMidFlightUpdate(t *testing.T) {
	srv, ts, g := newTestServer(t, serverConfig{MaxInflight: 2, MaxQueue: 2, RowLimit: 5})

	const qs = `SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`
	q := sparql.MustParse(qs)
	preOracle := engine.Naive(g, q).Distinct().Card()

	// Block the query after its first delivered step so the update is
	// guaranteed to land mid-flight.
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	select {
	case <-firstStep:
	case <-time.After(10 * time.Second):
		t.Fatal("query never delivered its first step")
	}

	// Publish an update while the query holds its pin: a brand-new
	// subject plus a CS change to an existing one.
	delta := "<s100> <p0> <s1> .\n<s0> <p9> <s1> .\n"
	ur, err := http.Post(ts.URL+"/update?op=add", "application/n-triples", strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	var upd updateResponse
	if err := json.NewDecoder(ur.Body).Decode(&upd); err != nil {
		t.Fatal(err)
	}
	ur.Body.Close()
	if ur.StatusCode != http.StatusOK || upd.Epoch != 1 {
		t.Fatalf("update: status %d, epoch %d (want 200, epoch 1)", ur.StatusCode, upd.Epoch)
	}

	released = true
	close(gate)
	srv.setStepHook(nil)

	lines := readLines(t, resp.Body)
	if len(lines) < 2 {
		t.Fatalf("expected at least one step and a done line, got %d lines", len(lines))
	}
	done := lines[len(lines)-1]
	if !done.Done || !done.Exact {
		t.Fatalf("bad done line: %+v", done)
	}
	prev := 0
	for _, l := range lines[:len(lines)-1] {
		if l.Epoch != 0 {
			t.Fatalf("step %d observed epoch %d mid-update; snapshot isolation broken", l.Step, l.Epoch)
		}
		if l.Answers < prev {
			t.Fatalf("answers shrank at step %d: %d < %d", l.Step, l.Answers, prev)
		}
		prev = l.Answers
	}
	if done.Epoch != 0 {
		t.Fatalf("done line epoch %d, want pinned epoch 0", done.Epoch)
	}
	if done.Answers != preOracle {
		t.Fatalf("pinned-epoch answers %d, want pre-update oracle %d", done.Answers, preOracle)
	}

	// A query admitted after the publish evaluates against epoch 1 and
	// sees the added triples.
	g.Add(rdf.NewIRI("s100"), rdf.NewIRI("p0"), rdf.NewIRI("s1"))
	g.Add(rdf.NewIRI("s0"), rdf.NewIRI("p9"), rdf.NewIRI("s1"))
	postOracle := engine.Naive(g, q).Distinct().Card()

	resp2, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	lines2 := readLines(t, resp2.Body)
	done2 := lines2[len(lines2)-1]
	if !done2.Done || done2.Epoch != 1 {
		t.Fatalf("post-update query: %+v, want done at epoch 1", done2)
	}
	if done2.Answers != postOracle {
		t.Fatalf("post-update answers %d, want oracle %d", done2.Answers, postOracle)
	}

	// The store reports the published epoch and a clean pin count.
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st.Epoch != 1 || st.PinnedQueries != 0 {
		t.Fatalf("stats: %+v, want epoch 1 with no pins", st)
	}
}

// TestAdmissionControl verifies the 429 path: with one execution slot
// and no queue, a second concurrent query is rejected immediately.
func TestAdmissionControl(t *testing.T) {
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
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload query got status %d, want 429", resp2.StatusCode)
	}
}

// TestQueryValidation covers the 400 paths.
func TestQueryValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})

	for _, u := range []string{
		ts.URL + "/query",                     // no query at all
		queryURL(ts.URL, "NOT SPARQL AT ALL"), // unparsable
	} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", u, resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/update?op=frobnicate", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op: status %d, want 400", resp.StatusCode)
	}
}

// TestUpdateRemove exercises the remove direction end to end.
func TestUpdateRemove(t *testing.T) {
	_, ts, g := newTestServer(t, serverConfig{})

	const qs = `SELECT * WHERE { ?x <p0> ?y }`
	q := sparql.MustParse(qs)

	// Remove every <p0> triple of subject s0.
	var sb strings.Builder
	removed := make(map[rdf.Triple]bool)
	s0 := g.Dict.Lookup(rdf.NewIRI("s0"))
	p0 := g.Dict.Lookup(rdf.NewIRI("p0"))
	for _, tr := range g.Triples {
		if tr.S == s0 && tr.P == p0 {
			fmt.Fprintf(&sb, "<s0> <p0> %s .\n", g.Dict.TermString(tr.O))
			removed[tr] = true
		}
	}
	if len(removed) == 0 {
		t.Fatal("test graph has no <s0> <p0> triples")
	}
	resp, err := http.Post(ts.URL+"/update?op=remove", "application/n-triples", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove update: status %d", resp.StatusCode)
	}

	kept := g.Triples[:0:0]
	for _, tr := range g.Triples {
		if !removed[tr] {
			kept = append(kept, tr)
		}
	}
	g.Triples = kept
	oracle := engine.Naive(g, q).Distinct().Card()

	qr, err := http.Get(queryURL(ts.URL, qs))
	if err != nil {
		t.Fatal(err)
	}
	defer qr.Body.Close()
	lines := readLines(t, qr.Body)
	done := lines[len(lines)-1]
	if !done.Done || done.Epoch != 1 || done.Answers != oracle {
		t.Fatalf("post-remove query: %+v, want epoch 1 with %d answers", done, oracle)
	}
}
