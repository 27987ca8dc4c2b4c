package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ping/internal/obs"
	"ping/internal/sparql"
)

func TestCanonicalAlphaEquivalence(t *testing.T) {
	// Syntactically different but α-equivalent: only the variable names
	// differ. This is the acceptance-criterion pair.
	a := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?org . ?x <hasKeyword> ?kw }`)
	b := sparql.MustParse(`SELECT * WHERE { ?protein <occursIn> ?o . ?protein <hasKeyword> ?k }`)
	if Canonical(a) != Canonical(b) {
		t.Fatalf("α-equivalent queries canonicalize differently:\n%s\nvs\n%s", Canonical(a), Canonical(b))
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("α-equivalent queries fingerprint differently: %s vs %s", Fingerprint(a), Fingerprint(b))
	}
	if len(Fingerprint(a)) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex digits", Fingerprint(a))
	}

	// Projection and filters participate in the renaming.
	c := sparql.MustParse(`SELECT ?x WHERE { ?x <p> ?y . FILTER (?y > 3) }`)
	d := sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b . FILTER (?b > 3) }`)
	if Fingerprint(c) != Fingerprint(d) {
		t.Fatal("filter/projection renaming broken")
	}

	// Structural differences must NOT collapse.
	distinct := []*sparql.Query{
		sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?y }`),                               // fewer patterns
		sparql.MustParse(`SELECT * WHERE { ?x <hasKeyword> ?y . ?x <occursIn> ?z }`),          // reordered patterns
		sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?y . ?x <reference> ?z }`),           // different predicate
		sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?y . ?y <hasKeyword> ?z }`),          // different join variable
		sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?y . ?x <hasKeyword> ?y }`),          // merged variables
		sparql.MustParse(`SELECT DISTINCT * WHERE { ?x <occursIn> ?y . ?x <hasKeyword> ?z }`), // DISTINCT
	}
	seen := map[string]string{Fingerprint(a): a.String()}
	for _, q := range distinct {
		fp := Fingerprint(q)
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision between %s and %s", prev, q.String())
		}
		seen[fp] = q.String()
	}

	// LIMIT changes semantics (and the incremental decision): distinct.
	lim := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?y } LIMIT 5`)
	nolim := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?y }`)
	if Fingerprint(lim) == Fingerprint(nolim) {
		t.Error("LIMIT ignored by fingerprint")
	}
}

// observe folds ev into p under q's identity and returns q's
// fingerprint, as pingd stamps every lineage's event.
func observe(p *Profiler, q *sparql.Query, ev obs.WideEvent) string {
	ev.Canonical = Canonical(q)
	ev.Fingerprint = FingerprintCanonical(ev.Canonical)
	ev.Shape = sparql.Classify(q).String()
	p.Observe(ev)
	return ev.Fingerprint
}

func TestProfilerAggregation(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewProfiler(Options{Metrics: reg})

	a := sparql.MustParse(`SELECT * WHERE { ?x <occursIn> ?org }`)
	b := sparql.MustParse(`SELECT * WHERE { ?subject <occursIn> ?place }`)

	fpA := observe(p, a, obs.WideEvent{
		LatencyMs: 10, Steps: 3, StepsToFirstAnswer: 1,
		CoverageAtFirst: 0.5, Coverage: []float64{0.5, 0.8, 1}, Answers: 10, Epoch: 1,
	})
	fpB := observe(p, b, obs.WideEvent{
		LatencyMs: 30, Steps: 3, StepsToFirstAnswer: 3,
		CoverageAtFirst: 1, Coverage: []float64{0, 0, 1}, Answers: 12, Epoch: 2, Degraded: true,
	})
	if fpA != fpB {
		t.Fatalf("α-equivalent queries got different fingerprints: %s vs %s", fpA, fpB)
	}

	other := sparql.MustParse(`SELECT * WHERE { ?x <reference> ?y }`)
	observe(p, other, obs.WideEvent{LatencyMs: 1, Steps: 1, Error: "boom"})

	snap := p.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	// Sorted by total latency descending: the 40ms fingerprint first.
	top := snap[0]
	if top.Fingerprint != fpA {
		t.Fatalf("top fingerprint %s, want %s", top.Fingerprint, fpA)
	}
	if top.Count != 2 || top.Degraded != 1 || top.Errors != 0 {
		t.Errorf("top aggregate %+v, want count=2 degraded=1", top)
	}
	if top.MinMs != 10 || top.MaxMs != 30 || top.TotalMs != 40 || top.MeanMs != 20 {
		t.Errorf("latency aggregate min=%v max=%v total=%v mean=%v", top.MinMs, top.MaxMs, top.TotalMs, top.MeanMs)
	}
	if top.MeanSteps != 3 {
		t.Errorf("mean steps %v, want 3", top.MeanSteps)
	}
	if top.MeanStepsToFirst != 2 || top.MeanCoverageAtFirst != 0.75 {
		t.Errorf("first-answer aggregate steps=%v cov=%v, want 2 and 0.75", top.MeanStepsToFirst, top.MeanCoverageAtFirst)
	}
	if len(top.Coverage) != 3 || top.Coverage[2] != 1 {
		t.Errorf("latest coverage curve %v", top.Coverage)
	}
	if top.LastEpoch != 2 || top.LastAnswers != 12 {
		t.Errorf("last run epoch=%d answers=%d, want 2 and 12", top.LastEpoch, top.LastAnswers)
	}
	if top.P50Ms <= 0 || top.P95Ms < top.P50Ms {
		t.Errorf("quantiles p50=%v p95=%v", top.P50Ms, top.P95Ms)
	}
	if snap[1].Errors != 1 {
		t.Errorf("error run not counted: %+v", snap[1])
	}

	// The per-fingerprint registry series exist and carry the counts.
	if got := reg.Counter("workload_queries_total", obs.Labels{"fingerprint": fpA, "shape": "star"}).Value(); got != 2 {
		t.Errorf("workload_queries_total = %d, want 2", got)
	}
	if got := reg.Gauge("workload_fingerprints", nil).Value(); got != 2 {
		t.Errorf("workload_fingerprints = %v, want 2", got)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `workload_query_seconds_count{fingerprint="`+fpA+`"}`) {
		t.Errorf("Prometheus export missing fingerprint histogram:\n%s", prom.String())
	}
}

func TestProfilerBounded(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewProfiler(Options{Metrics: reg, MaxFingerprints: 2})
	queries := []string{
		`SELECT * WHERE { ?x <a> ?y }`,
		`SELECT * WHERE { ?x <b> ?y }`,
		`SELECT * WHERE { ?x <c> ?y }`,
		`SELECT * WHERE { ?x <d> ?y }`,
	}
	for _, qs := range queries {
		observe(p, sparql.MustParse(qs), obs.WideEvent{LatencyMs: 1})
	}
	if got := len(p.Snapshot()); got != 2 {
		t.Fatalf("tracked %d fingerprints, want bound 2", got)
	}
	if p.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", p.Dropped())
	}
	// An already-tracked fingerprint still aggregates at the bound.
	observe(p, sparql.MustParse(queries[0]), obs.WideEvent{LatencyMs: 1})
	found := false
	for _, st := range p.Snapshot() {
		if st.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("tracked fingerprint stopped aggregating at the bound")
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewProfiler(Options{Metrics: reg})
	observe(p, sparql.MustParse(`SELECT * WHERE { ?x <a> ?y }`), obs.WideEvent{
		LatencyMs: 5, Steps: 2, StepsToFirstAnswer: 1,
		CoverageAtFirst: 0.4, Coverage: []float64{0.4, 1}, Answers: 7, Epoch: 3,
	})
	observe(p, sparql.MustParse(`SELECT * WHERE { ?x <b> ?y . ?y <c> ?z }`), obs.WideEvent{
		LatencyMs: 50, Steps: 4, Degraded: true,
	})

	var buf bytes.Buffer
	if err := p.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("round-trip %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(want[i])
		if !bytes.Equal(gj, wj) {
			t.Errorf("entry %d round-trip mismatch:\n%s\nvs\n%s", i, gj, wj)
		}
	}

	path := filepath.Join(t.TempDir(), "workload.ndjson")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromFile, err := ReadNDJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile) != len(want) {
		t.Fatalf("SaveFile round-trip %d entries, want %d", len(fromFile), len(want))
	}
}

// TestNDJSONReadsLargeCanonical: a snapshot line of a query near the
// request body cap reads back. JSON escapes each < and > of its
// canonical text to six bytes, so this line is about 1.2 MB.
func TestNDJSONReadsLargeCanonical(t *testing.T) {
	p := NewProfiler(Options{Metrics: obs.NewRegistry()})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> "` + strings.Repeat("<>", 100_000) + `" }`)
	observe(p, q, obs.WideEvent{LatencyMs: 1, Steps: 1})
	var buf bytes.Buffer
	if err := p.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1<<20 {
		t.Fatalf("snapshot line is %d bytes, want > 1 MiB (the test is vacuous)", buf.Len())
	}
	got, err := ReadNDJSON(&buf)
	if err != nil || len(got) != 1 || got[0].Canonical != Canonical(q) {
		t.Fatalf("read back: %v (%d entries)", err, len(got))
	}
}

// TestSlowLogThreshold is the acceptance criterion: exactly one NDJSON
// record for a query over the threshold, none below.
func TestSlowLogThreshold(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 10*time.Millisecond)

	ev := obs.WideEvent{
		Fingerprint: "deadbeefdeadbeef",
		Query:       `SELECT * WHERE { ?x <a> ?y }`,
		Epoch:       4,
		Strategy:    "level-cumulative",
		Steps:       3,
		SubParts:    5,
		MaxLevel:    3,
		StepMs:      []float64{1, 2, 9},
		Answers:     42,
		LatencyMs:   5,
	}
	if l.Observe(ev) {
		t.Fatal("below-threshold query was logged")
	}
	if buf.Len() != 0 {
		t.Fatalf("below-threshold query wrote %q", buf.String())
	}
	ev.LatencyMs = 15
	if !l.Observe(ev) {
		t.Fatal("over-threshold query was not logged")
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("wrote %d records, want exactly 1: %q", len(lines), buf.String())
	}
	var got SlowQuery
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if got.Fingerprint != ev.Fingerprint || got.Epoch != 4 || got.Answers != 42 {
		t.Errorf("record %+v lost fields", got)
	}
	if got.LatencyMs != 15 || got.ThresholdMs != 10 {
		t.Errorf("latency %v / threshold %v, want 15 / 10", got.LatencyMs, got.ThresholdMs)
	}
	if got.Time == "" {
		t.Error("record missing timestamp")
	}
	if want := (PlanSummary{Strategy: "level-cumulative", Steps: 3, SubParts: 5, MaxLevel: 3}); got.Plan == nil || *got.Plan != want {
		t.Errorf("plan summary %+v", got.Plan)
	}
	if len(got.StepMs) != 3 {
		t.Errorf("step timings %v", got.StepMs)
	}
	if l.Emitted() != 1 {
		t.Errorf("Emitted = %d, want 1", l.Emitted())
	}

	// Nil log is inert.
	var nl *SlowLog
	ev.LatencyMs = float64(time.Hour.Milliseconds())
	if nl.Observe(ev) || nl.Emitted() != 0 {
		t.Fatal("nil SlowLog should be inert")
	}
}

// TestResumedLineageCountsOnce is the no-double-counting rule for
// resumable queries: a lineage that ran as several cursor segments is
// folded in as ONE observation with the segment latencies summed, so
// Count, the latency aggregates, and the histogram all see one query —
// only MeanSegments reveals the pauses.
func TestResumedLineageCountsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewProfiler(Options{Metrics: reg})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y }`)

	// An uninterrupted run, then a 3-segment lineage of the same shape
	// (10+20+30ms segments observed once, summed).
	observe(p, q, obs.WideEvent{LatencyMs: 5, Steps: 4, Segments: 1})
	observe(p, q, obs.WideEvent{LatencyMs: 60, Steps: 4, Segments: 3})

	snap := p.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d fingerprints, want 1", len(snap))
	}
	st := snap[0]
	if st.Count != 2 {
		t.Fatalf("count %d, want 2 (one per lineage, not per segment)", st.Count)
	}
	if st.TotalMs != 65 || st.MaxMs != 60 {
		t.Fatalf("latency total=%v max=%v, want 65/60 (segments summed)", st.TotalMs, st.MaxMs)
	}
	if st.MeanSteps != 4 {
		t.Fatalf("mean steps %v, want 4 (lineage steps, not doubled)", st.MeanSteps)
	}
	if st.MeanSegments != 2 {
		t.Fatalf("mean segments %v, want 2", st.MeanSegments)
	}
}

// TestSnapshotDeterministicOrder is the regression for replayed NDJSON
// workloads, where every latency is zero and total-latency ordering
// degenerates: colliding (TotalMs, Count) pairs must still come out in a
// stable order (count descending, then fingerprint), so the advisor's
// "top K" hot set does not change between two snapshots of the same
// profile.
func TestSnapshotDeterministicOrder(t *testing.T) {
	mk := func() *Profiler {
		p := NewProfiler(Options{Metrics: obs.NewRegistry()})
		// Six distinct fingerprints, all with zero latency; q4/q5 also
		// collide on count with q0..q3 pairwise.
		for i, n := range []int{2, 2, 1, 1, 2, 1} {
			q := sparql.MustParse(fmt.Sprintf(`SELECT * WHERE { ?x <p%d> ?y }`, i))
			for j := 0; j < n; j++ {
				observe(p, q, obs.WideEvent{Steps: 1})
			}
		}
		return p
	}
	want := mk().Snapshot()
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if a.Count < b.Count {
			t.Fatalf("snapshot not count-ordered at %d: %d before %d", i, a.Count, b.Count)
		}
		if a.Count == b.Count && a.Fingerprint >= b.Fingerprint {
			t.Fatalf("colliding counts not fingerprint-ordered at %d: %s before %s",
				i, a.Fingerprint, b.Fingerprint)
		}
	}
	// Map iteration order must not leak through: every rebuild of the
	// same profile snapshots identically.
	for trial := 0; trial < 20; trial++ {
		got := mk().Snapshot()
		for i := range want {
			if got[i].Fingerprint != want[i].Fingerprint {
				t.Fatalf("trial %d: position %d is %s, want %s",
					trial, i, got[i].Fingerprint, want[i].Fingerprint)
			}
		}
	}
}
