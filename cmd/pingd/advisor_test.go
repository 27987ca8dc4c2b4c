package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// TestWorkloadTopBounds: ?top=N must bound both response formats, and
// malformed values must be rejected instead of silently ignored.
func TestWorkloadTopBounds(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})

	for i := 0; i < 3; i++ {
		qs := fmt.Sprintf(`SELECT * WHERE { ?x <p%d> ?y }`, i)
		resp, err := http.Get(queryURL(ts.URL, qs))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	for _, format := range []string{"", "&format=ndjson"} {
		resp, err := http.Get(ts.URL + "/workload?top=2" + format)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var n int
		if format == "" {
			var wl workloadResponse
			if err := json.Unmarshal(body, &wl); err != nil {
				t.Fatal(err)
			}
			n = len(wl.Fingerprints)
		} else {
			n = strings.Count(strings.TrimSpace(string(body)), "\n") + 1
		}
		if n != 2 {
			t.Errorf("top=2%s returned %d fingerprints, want 2", format, n)
		}
	}

	for _, bad := range []string{"x", "-1", "5x", "2.5"} {
		resp, err := http.Get(ts.URL + "/workload?top=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("top=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// advisorFixtureServer serves the advisor's canonical fixture: a
// four-level hierarchy where the chain p⋈q answers only once the
// schedule reaches level 4, so the advisor has cold levels to merge.
func advisorFixtureServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server, *rdf.Graph) {
	t.Helper()
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	levelProps := [][]string{
		{"p", "q"},
		{"p", "q", "f1"},
		{"p", "q", "f1", "f2"},
		{"p", "q", "f1", "f2", "f3"},
	}
	counts := []int{5, 4, 3, 2}
	for l, props := range levelProps {
		for i := 0; i < counts[l]; i++ {
			s := fmt.Sprintf("l%ds%d", l+1, i)
			for _, p := range props {
				g.Add(iri(s), iri(p), iri(fmt.Sprintf("%s-%s", s, p)))
			}
		}
	}
	g.Add(iri("l4s0"), iri("p"), iri("l1s0"))
	g.Dedup()
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

func getAdvisor(t *testing.T, method, u string) advisorResponse {
	t.Helper()
	req, err := http.NewRequest(method, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, u, resp.StatusCode, body)
	}
	var ar advisorResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("bad /advisor body %s: %v", body, err)
	}
	return ar
}

// TestAdvisorEndpointOnlineLoop drives the full online loop through the
// HTTP surface: hot queries populate the profiler, GET /advisor shows
// the recommendation, a cursor checkpointed on the old epoch pauses,
// POST /advisor?apply=1 publishes the advised layout as a new epoch —
// after which fresh queries answer in fewer steps with the same answers,
// and the pre-epoch cursor still resumes to the exact result.
func TestAdvisorEndpointOnlineLoop(t *testing.T) {
	srv, ts, g := advisorFixtureServer(t, serverConfig{RowLimit: 5})

	const hot = `SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }`
	oracle := engine.Naive(g, sparql.MustParse(hot)).Distinct().Card()

	var stepsBefore int
	for i := 0; i < 3; i++ {
		lines := getRLines(t, queryURL(ts.URL, hot))
		done := lines[len(lines)-1]
		if !done.Done || done.Answers != oracle {
			t.Fatalf("hot query run %d: %+v, want done with %d answers", i, done, oracle)
		}
		stepsBefore = done.Steps
	}
	if stepsBefore < 2 {
		t.Fatalf("fixture broken: hot query took %d steps before advice", stepsBefore)
	}

	ar := getAdvisor(t, http.MethodGet, ts.URL+"/advisor")
	if ar.Advice == nil || len(ar.Advice.Merges) == 0 {
		t.Fatalf("advisor recommended nothing: %+v", ar)
	}
	if ar.Applied != 0 {
		t.Fatalf("applied %d before any apply", ar.Applied)
	}

	// Park a cursor on the pre-advice epoch: one budgeted step, paused.
	paused := getRLines(t, queryURL(ts.URL, hot)+"&max_steps=1")
	plast := paused[len(paused)-1]
	if !plast.Paused || plast.Cursor == "" {
		t.Fatalf("budgeted query did not pause: %+v", plast)
	}

	applied := getAdvisor(t, http.MethodPost, ts.URL+"/advisor?apply=1")
	if applied.Applied != 1 {
		t.Fatalf("applied = %d, want 1", applied.Applied)
	}
	if srv.store.Epoch() != 1 {
		t.Fatalf("store epoch %d after apply, want 1", srv.store.Epoch())
	}

	// Fresh run on the advised layout: same answers, fewer steps.
	after := getRLines(t, queryURL(ts.URL, hot))
	adone := after[len(after)-1]
	if !adone.Done || adone.Answers != oracle {
		t.Fatalf("post-advice run: %+v, want done with %d answers", adone, oracle)
	}
	if adone.Steps >= stepsBefore {
		t.Errorf("post-advice steps = %d, want < %d", adone.Steps, stepsBefore)
	}

	// The checkpointed cursor resumes across the advisor epoch and
	// completes exactly, still pinned to its pre-advice snapshot.
	resumed := getRLines(t, ts.URL+"/resume?cursor="+plast.Cursor)
	rlast := resumed[len(resumed)-1]
	if !rlast.Done || rlast.Answers != oracle {
		t.Fatalf("resumed cursor: %+v, want done with %d answers", rlast, oracle)
	}
	if rlast.Epoch != 0 {
		t.Errorf("resumed cursor ran on epoch %d, want its pinned epoch 0", rlast.Epoch)
	}

	// A second apply of now-stale advice must be rejected, not reapplied.
	if err := srv.applyAdvice(ar.Advice); err == nil {
		t.Error("stale advice applied without error")
	}
}
