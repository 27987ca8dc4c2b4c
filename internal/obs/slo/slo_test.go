package slo

import (
	"math"
	"testing"
	"time"

	"ping/internal/obs"
)

// fakeClock is a settable time source for the engine.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	// A fixed instant aligned to a bucket boundary keeps the hand
	// arithmetic below exact.
	return &fakeClock{t: time.Date(2026, 1, 2, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// failed is an errored lineage, bad under every objective that counts
// errors.
var failed = obs.WideEvent{Error: "boom"}

func status(t *testing.T, e *Engine, name string) Status {
	t.Helper()
	for _, st := range e.Snapshot() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("objective %q missing from snapshot", name)
	return Status{}
}

func window(t *testing.T, st Status, label string) WindowStats {
	t.Helper()
	for _, w := range st.Windows {
		if w.Window == label {
			return w
		}
	}
	t.Fatalf("window %q missing from %s", label, st.Name)
	return WindowStats{}
}

// TestBurnRateOracle checks the window arithmetic against hand-computed
// numbers: events placed in known buckets, totals and burn rates per
// window derived on paper.
func TestBurnRateOracle(t *testing.T) {
	clk := newFakeClock()
	obj := Availability("avail", 0.99) // error budget 0.01
	e := NewEngine(obs.NewRegistry(), obj).WithClock(clk.now)

	// t=0: 8 good, 2 bad.
	for i := 0; i < 8; i++ {
		e.Observe(obs.WideEvent{})
	}
	e.Observe(failed)
	e.Observe(failed)

	// t=+10m: 10 good. The first batch has left the 5m window but is
	// still inside 30m, 1h, and 6h.
	clk.advance(10 * time.Minute)
	for i := 0; i < 10; i++ {
		e.Observe(obs.WideEvent{})
	}

	st := status(t, e, "avail")
	checks := []struct {
		label     string
		good, bad int64
	}{
		{"5m", 10, 0},
		{"30m", 18, 2},
		{"1h", 18, 2},
		{"6h", 18, 2},
	}
	for _, c := range checks {
		w := window(t, st, c.label)
		if w.Good != c.good || w.Bad != c.bad {
			t.Errorf("%s window: good=%d bad=%d, want good=%d bad=%d",
				c.label, w.Good, w.Bad, c.good, c.bad)
		}
	}
	// bad fraction 2/20 = 0.1; burn = 0.1 / 0.01 = 10.
	w := window(t, st, "1h")
	if w.BadFraction != 0.1 {
		t.Errorf("1h bad fraction = %v, want 0.1", w.BadFraction)
	}
	if math.Abs(w.Burn-10) > 1e-9 {
		t.Errorf("1h burn = %v, want 10", w.Burn)
	}
	if w5 := window(t, st, "5m"); w5.Burn != 0 {
		t.Errorf("5m burn = %v, want 0 (bad events aged out)", w5.Burn)
	}

	// t=+7h: everything has aged out of every window.
	clk.advance(7 * time.Hour)
	st = status(t, e, "avail")
	for _, label := range []string{"5m", "30m", "1h", "6h"} {
		w := window(t, st, label)
		if w.Good != 0 || w.Bad != 0 || w.Burn != 0 {
			t.Errorf("%s window not empty after 7h idle: %+v", label, w)
		}
	}
}

// TestAlertStateMachine drives ok -> page -> warning -> ok purely
// through the event stream: the page fires when both fast windows burn
// hot, decays to warning once the 5m window recovers (the slow pair
// still remembers), and clears entirely when the bad events age past
// the 30m window — no timers, no manual reset.
func TestAlertStateMachine(t *testing.T) {
	clk := newFakeClock()
	obj := Availability("avail", 0.99) // all-bad burn = 1/0.01 = 100 >= 14.4
	reg := obs.NewRegistry()
	e := NewEngine(reg, obj).WithClock(clk.now)

	if st := status(t, e, "avail"); st.State != StateOK {
		t.Fatalf("initial state %q, want ok", st.State)
	}

	// A burst of failures: both the 5m and 1h windows see 100% bad.
	for i := 0; i < 20; i++ {
		e.Observe(failed)
	}
	if st := status(t, e, "avail"); st.State != StatePage {
		t.Fatalf("state after failure burst = %q, want page", st.State)
	}

	// Failures age past the 5m window while good traffic flows: the page
	// clears (needs 5m AND 1h), but the slow pair (30m AND 6h) still
	// burns, so the objective decays to warning rather than ok.
	clk.advance(6 * time.Minute)
	for i := 0; i < 20; i++ {
		e.Observe(obs.WideEvent{})
	}
	if st := status(t, e, "avail"); st.State != StateWarning {
		t.Fatalf("state after 5m recovery = %q, want warning", st.State)
	}

	// Once the failures leave the 30m window too, the alert fully
	// clears — even though the 1h window still remembers them.
	clk.advance(25 * time.Minute)
	st := status(t, e, "avail")
	if st.State != StateOK {
		t.Fatalf("state after full recovery = %q, want ok", st.State)
	}
	if w := window(t, st, "1h"); w.Bad != 20 {
		t.Fatalf("1h window forgot the failures: %+v", w)
	}

	// The transitions were counted: ok->page, page->warning, warning->ok.
	for to, want := range map[string]int64{StatePage: 1, StateWarning: 1, StateOK: 1} {
		if v := reg.Counter("slo_alert_transitions_total", obs.Labels{"objective": "avail", "to": to}).Value(); v != want {
			t.Errorf("transitions to %s = %d, want %d", to, v, want)
		}
	}
	if v := reg.Gauge("slo_state", obs.Labels{"objective": "avail"}).Value(); v != 0 {
		t.Errorf("slo_state gauge = %v, want 0", v)
	}
}

// TestWarningState: a sustained moderate burn trips the slow pair
// without reaching the page thresholds.
func TestWarningState(t *testing.T) {
	clk := newFakeClock()
	// Target 0.9: budget 0.1. A 75% bad stream burns at 7.5 — above
	// WarnBurn (6), below PageBurn (14.4).
	e := NewEngine(obs.NewRegistry(), Availability("avail", 0.9)).WithClock(clk.now)
	for i := 0; i < 4; i++ {
		e.Observe(failed)
		e.Observe(failed)
		e.Observe(failed)
		e.Observe(obs.WideEvent{})
	}
	st := status(t, e, "avail")
	if st.State != StateWarning {
		t.Fatalf("state = %q, want warning (burn %v)", st.State, window(t, st, "5m").Burn)
	}
}

func TestObjectiveClassifiers(t *testing.T) {
	cases := []struct {
		name string
		obj  *Objective
		ev   obs.WideEvent
		bad  bool
		skip bool
	}{
		{"latency good", Latency("l", 0.99, time.Second), obs.WideEvent{LatencyMs: 500}, false, false},
		{"latency bad", Latency("l", 0.99, time.Second), obs.WideEvent{LatencyMs: 2000}, true, false},
		{"latency skips errors", Latency("l", 0.99, time.Second), obs.WideEvent{LatencyMs: 2000, Error: "boom"}, false, true},
		{"first-answer good", FirstAnswerSteps("f", 0.95, 3), obs.WideEvent{StepsToFirstAnswer: 2, Answers: 5}, false, false},
		{"first-answer bad late", FirstAnswerSteps("f", 0.95, 3), obs.WideEvent{StepsToFirstAnswer: 4, Answers: 5}, true, false},
		{"first-answer bad never", FirstAnswerSteps("f", 0.95, 3), obs.WideEvent{StepsToFirstAnswer: 0, Answers: 5}, true, false},
		{"first-answer skips empty", FirstAnswerSteps("f", 0.95, 3), obs.WideEvent{StepsToFirstAnswer: 0, Answers: 0}, false, true},
		{"first-answer skips errors", FirstAnswerSteps("f", 0.95, 3), obs.WideEvent{Answers: 5, Error: "boom"}, false, true},
		{"coverage good", CoverageAtBudget("c", 0.95, 0.5), obs.WideEvent{BudgetExhaustedStep: 2, Coverage: []float64{0.1, 0.8, 1}}, false, false},
		{"coverage bad", CoverageAtBudget("c", 0.95, 0.5), obs.WideEvent{BudgetExhaustedStep: 1, Coverage: []float64{0.2, 1}}, true, false},
		{"coverage skips unbudgeted", CoverageAtBudget("c", 0.95, 0.5), obs.WideEvent{Coverage: []float64{0.2}}, false, true},
		{"coverage skips a step past the curve", CoverageAtBudget("c", 0.95, 0.5), obs.WideEvent{BudgetExhaustedStep: 3, Coverage: []float64{0.2}}, false, true},
		{"coverage skips errors", CoverageAtBudget("c", 0.95, 0.5), obs.WideEvent{BudgetExhaustedStep: 1, Coverage: []float64{0.2}, Error: "boom"}, false, true},
		{"availability good", Availability("a", 0.999), obs.WideEvent{}, false, false},
		{"availability bad error", Availability("a", 0.999), obs.WideEvent{Error: "boom"}, true, false},
		{"availability bad degraded", Availability("a", 0.999), obs.WideEvent{Degraded: true}, true, false},
	}
	for _, c := range cases {
		bad, skip := c.obj.classify(c.ev)
		if bad != c.bad || skip != c.skip {
			t.Errorf("%s: classify = (bad=%v, skip=%v), want (bad=%v, skip=%v)",
				c.name, bad, skip, c.bad, c.skip)
		}
	}
}

// TestBurnNoErrorBudget: a target of exactly 1.0 has no budget; any bad
// event must report a huge finite burn, never Inf/NaN (JSON safety).
func TestBurnNoErrorBudget(t *testing.T) {
	frac, rate := burn(1.0, 9, 1)
	if frac != 0.1 || rate != 1e9 {
		t.Fatalf("burn(1.0, 9, 1) = (%v, %v), want (0.1, 1e9)", frac, rate)
	}
	if _, rate := burn(1.0, 10, 0); rate != 0 {
		t.Fatalf("clean traffic at target 1.0 burns %v, want 0", rate)
	}
	if frac, rate := burn(0.99, 0, 0); frac != 0 || rate != 0 {
		t.Fatalf("empty window = (%v, %v), want zeros", frac, rate)
	}
}

// TestRingBucketArithmetic exercises the ring directly: bucket
// alignment, wrap-around, clock going backwards, and full-span reset.
func TestRingBucketArithmetic(t *testing.T) {
	base := time.Date(2026, 1, 2, 12, 0, 0, 0, time.UTC)
	r := newRing(15*time.Second, 60*time.Second) // 4 buckets

	// Two events in the same bucket (7s apart, both truncate to base).
	r.add(base, false)
	r.add(base.Add(7*time.Second), true)
	if g, b := r.totals(base.Add(7*time.Second), 15*time.Second); g != 1 || b != 1 {
		t.Fatalf("same-bucket totals = (%d, %d), want (1, 1)", g, b)
	}

	// One event per subsequent bucket.
	r.add(base.Add(15*time.Second), false)
	r.add(base.Add(30*time.Second), false)
	r.add(base.Add(45*time.Second), false)
	if g, b := r.totals(base.Add(45*time.Second), 60*time.Second); g != 4 || b != 1 {
		t.Fatalf("full-window totals = (%d, %d), want (4, 1)", g, b)
	}
	// A 30s window sees only the last two buckets.
	if g, b := r.totals(base.Add(45*time.Second), 30*time.Second); g != 2 || b != 0 {
		t.Fatalf("30s totals = (%d, %d), want (2, 0)", g, b)
	}

	// Wrapping evicts the oldest bucket (the one with the bad event).
	r.add(base.Add(60*time.Second), false)
	if g, b := r.totals(base.Add(60*time.Second), 60*time.Second); g != 4 || b != 0 {
		t.Fatalf("post-wrap totals = (%d, %d), want (4, 0)", g, b)
	}

	// Clock going backwards lands in the current head bucket — no panic,
	// no rotation.
	r.add(base.Add(50*time.Second), true)
	if g, b := r.totals(base.Add(60*time.Second), 15*time.Second); g != 1 || b != 1 {
		t.Fatalf("backwards-clock totals = (%d, %d), want (1, 1)", g, b)
	}

	// A jump past the full span clears everything.
	r.add(base.Add(10*time.Minute), false)
	if g, b := r.totals(base.Add(10*time.Minute), 60*time.Second); g != 1 || b != 0 {
		t.Fatalf("post-jump totals = (%d, %d), want (1, 0)", g, b)
	}
}

func TestEngineNilSafe(t *testing.T) {
	var e *Engine
	e.Observe(obs.WideEvent{}) // must not panic
	if e.Snapshot() != nil {
		t.Fatal("nil engine snapshot != nil")
	}
}
