package main

import (
	"context"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"ping/internal/engine"
	"ping/internal/gmark"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// TestCatalogue holds BENCHMARK.json to what the program does and to the
// limits the driver puts on the file.
func TestCatalogue(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalogue(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(cat.Workloads) != len(specs()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(cat.Workloads), len(specs()))
	}
	for i, w := range cat.Workloads {
		use(w.Name)
		if w.Name != specs()[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, specs()[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range cat.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range cat.PerLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	for _, d := range append(cat.EndToEnd, cat.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the driver's limits", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", cat.RunSeconds)
	}
}

// TestQuartiles pins quartiles to statistics.quantiles(v, n=4) of
// Python, which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30})
	if q1 != 5 || q3 != 35 {
		t.Errorf("quartiles of [10 30] = %g, %g; Python gives 5, 35", q1, q3)
	}
	if got := spread([]float64{4}); !math.IsNaN(got) {
		t.Errorf("spread of one run = %g, want NaN", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "final_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "throughput_qps", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{100.5, 100.4}, "unresolved (inside spread)"},
		{lower, steady, []float64{108, 108}, "within bound"},
		{lower, steady, []float64{120, 121}, regression},
		{lower, steady, []float64{80, 81}, "better"},
		{higher, steady, []float64{80, 81}, regression},
		{higher, steady, []float64{120, 121}, "better"},
		{lower, []float64{100}, []float64{150}, "unresolved (one run, no spread)"},
		{metricDef{Name: "engine.step_ms", Better: "lower"}, steady, []float64{150, 150}, "worse (no bound)"},
	} {
		if _, _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %q, want %q", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pipeline", 0, 1)
	child := tr.begin("hpart.load", root, 1)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	time.Sleep(time.Millisecond)
	total := tr.end(root)
	self := tr.selfTimes()
	if self["hpart.load"] < 2*time.Millisecond {
		t.Errorf("child self time %v, slept 2ms", self["hpart.load"])
	}
	if got := self["pipeline"] + self["hpart.load"]; got != total {
		t.Errorf("self times add up to %v, the root span took %v", got, total)
	}
}

func TestParsePrometheus(t *testing.T) {
	got, err := parsePrometheus(strings.NewReader("# HELP x y\nping_subparts_cache_hits_total 12\nworkload_queries_total{fingerprint=\"a\"} 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got["ping_subparts_cache_hits_total"] != 12 || len(got) != 1 {
		t.Errorf("parsed %v", got)
	}
}

// TestFamilies checks that every family parses, is free of duplicates,
// and does not depend on anything but the schema.
func TestFamilies(t *testing.T) {
	for _, sp := range specs() {
		schema := gmark.DatasetByName(sp.dataset).Schema
		qs := sp.family(schema)
		if len(qs) < 40 {
			t.Errorf("%s: family of %d templates is too small to give stable percentiles", sp.name, len(qs))
		}
		seen := map[string]bool{}
		for _, text := range qs {
			if _, err := sparql.Parse(text); err != nil {
				t.Errorf("%s: %v in %q", sp.name, err, text)
			}
			if seen[text] {
				t.Errorf("%s: duplicate template %q", sp.name, text)
			}
			seen[text] = true
		}
		if again := sp.family(schema); strings.Join(again, "\n") != strings.Join(qs, "\n") {
			t.Errorf("%s: family differs between two calls", sp.name)
		}
		a, b := shuffled(qs, 7), shuffled(qs, 7)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: one seed gave two replay orders", sp.name)
		}
	}
}

// TestOracleAgreesWithNaive compares the benchmark's oracle (in-process
// EQA on the partitioned store) with engine.Naive, an evaluator that
// shares no code with it. Naive is a nested loop, so this runs on a few
// thousand triples, where it is affordable.
func TestOracleAgreesWithNaive(t *testing.T) {
	for _, sp := range specs() {
		ds, err := generate(sp, 0.04/sp.scale, 3)
		if err != nil {
			t.Fatal(err)
		}
		lay, err := partition(ds.base, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		mix, _, err := oracle(ds, lay, sp.family(ds.schema), nil, sp.writer)
		if err != nil {
			t.Fatal(err)
		}
		full := &rdf.Graph{Dict: ds.base.Dict, Triples: append(append([]rdf.Triple(nil), ds.base.Triples...), ds.heldOut...)}
		checked := 0
		for i := 0; i < len(mix); i += 5 {
			q := sparql.MustParse(mix[i].text)
			if got := engine.Naive(ds.base, q).Card(); got != mix[i].lo {
				t.Errorf("%s: oracle says %d answers, Naive %d, for %q", sp.name, mix[i].lo, got, mix[i].text)
			}
			if sp.writer {
				if got := engine.Naive(full, q).Card(); got != mix[i].hi {
					t.Errorf("%s: oracle says %d answers after updates, Naive %d, for %q", sp.name, mix[i].hi, got, mix[i].text)
				}
			}
			checked++
		}
		if checked < 3 {
			t.Errorf("%s: only %d queries had answers at this scale", sp.name, checked)
		}
	}
}

// smokeEnv builds pingd and scales every workload down to a tenth.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e.scale, e.setups, e.replay, e.outDir = 0.1, 1, 12, t.TempDir()
	return e
}

// TestSmoke runs all four workloads end to end and traced against a
// freshly built pingd, at a tenth of the scale and for a second each,
// and checks that every metric of BENCHMARK.json comes out finite, that
// no lineage fails, and that the preconditions hold.
func TestSmoke(t *testing.T) {
	e := smokeEnv(t)
	ctx := context.Background()
	for _, sp := range specs() {
		// Other packages' tests share the machine, so how punctual the
		// generator is says nothing here; and one second of open loop is 30
		// lineages, too few for the resumed share to settle at its 30 %.
		sp.pre.maxGenLagMS = 0
		sp.pre.minResumedShare = min(sp.pre.minResumedShare, 0.1)
		for _, run := range []func(context.Context, spec, int64, float64) (*result, error){e.endToEnd, e.traced} {
			r, err := run(ctx, sp, 7, 1)
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			if err := sp.pre.check(r); err != nil {
				t.Errorf("%s (traced %v): %v", sp.name, r.Traced, err)
			}
			if r.Failed > 0 || r.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", sp.name, r.Traced, r.Failed, r.Attempted, r.Notes)
			}
			if _, err := report(e.cat, r); err != nil {
				t.Errorf("%s (traced %v): %v", sp.name, r.Traced, err)
			}
		}
	}
}

// TestPreconditionsFire runs deep-miss on lubm, whose two levels fit the
// cache and take two steps: the run must be refused, not reported.
func TestPreconditionsFire(t *testing.T) {
	e := smokeEnv(t)
	sp, _ := specByName("deep-miss")
	sp.dataset = "lubm"
	sp.family = func(s gmark.Schema) []string { return stars(s, "Student", 2, nil) }
	r, err := e.endToEnd(context.Background(), sp, 7, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	err = sp.pre.check(r)
	if err == nil || !strings.Contains(err.Error(), "sub-partitions") {
		t.Errorf("deep-miss on lubm passed its preconditions: %v", err)
	}
	if err := (preconditions{minMedianSteps: 5}).check(r); err == nil {
		t.Error("a two-level dataset passed the median-steps precondition")
	}
	if err := (preconditions{maxTouched: cacheEntries, minHitRatio: 0.95}).check(r); err != nil {
		t.Errorf("lubm fits the cache, yet: %v", err)
	}
}
