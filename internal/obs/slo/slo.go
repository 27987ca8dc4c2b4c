// Package slo evaluates service-level objectives over the progressive
// query stream: declarative objectives (first-answer latency in steps,
// coverage at budget exhaustion, end-to-end latency, availability) fed
// one Event per query lineage, tracked in rolling time windows, and
// alerted on with the multi-window multi-burn-rate policy from the
// Google SRE workbook.
//
// Burn rate is the ratio between the observed bad fraction and the
// objective's error budget (1 - target): burn 1.0 spends the budget
// exactly over the SLO period, burn 14.4 spends a 30-day budget in two
// days. An objective pages when the fast window pair (5m AND 1h) both
// burn at >= 14.4x, and warns when the slow pair (30m AND 6h) both burn
// at >= 6x; requiring the long and short window together gives fast
// detection without flapping, and the alert resets as soon as the short
// window recovers. State is a pure function of the current window
// counts, so recovery needs no timers.
//
// The engine is fed one EventFromWide per lineage wide event and exports
// slo_* metrics into the obs registry; Snapshot backs the /slo endpoint
// and the dashboard panel.
package slo

import (
	"strconv"
	"sync"
	"time"

	"ping/internal/obs"
)

// Event is one completed query lineage, as the SLO engine sees it.
type Event struct {
	// Latency is the lineage's total wall time across segments.
	Latency time.Duration
	// StepsToFirstAnswer is the 1-based slice step that delivered the
	// first answer; 0 means the query finished with no answers.
	StepsToFirstAnswer int
	// Answers is the final answer count (to distinguish "no answer yet"
	// from "the answer is legitimately empty").
	Answers int
	// Coverage is the fraction of final answers delivered when the
	// client's budget was exhausted; meaningful only when Budgeted.
	Coverage float64
	// Budgeted reports whether the lineage ran under an explicit step
	// budget (the progressive contract the coverage objective guards).
	Budgeted bool
	// Err reports a failed lineage; Degraded one that skipped unreadable
	// sub-partitions.
	Err      bool
	Degraded bool
}

// EventFromWide derives a lineage's SLO event from its wide event. The
// coverage at budget exhaustion is the coverage curve's value at the
// event's BudgetExhaustedStep; lineages no budget bound are unbudgeted.
func EventFromWide(ev obs.WideEvent) Event {
	e := Event{
		Latency:            ev.Latency(),
		StepsToFirstAnswer: ev.StepsToFirstAnswer,
		Answers:            ev.Answers,
		Err:                ev.Error != "",
		Degraded:           ev.Degraded,
	}
	if n := ev.BudgetExhaustedStep; n > 0 && n <= len(ev.Coverage) {
		e.Budgeted = true
		e.Coverage = ev.Coverage[n-1]
	}
	return e
}

// Alert states, ordered by severity.
const (
	StateOK      = "ok"
	StateWarning = "warning"
	StatePage    = "page"
)

// The multi-window burn-rate policy (SRE workbook, 30-day period):
// page on fast 14.4x burn, warn on sustained 6x burn.
const (
	PageBurn = 14.4
	WarnBurn = 6.0

	pageShort = 5 * time.Minute
	pageLong  = 1 * time.Hour
	warnShort = 30 * time.Minute
	warnLong  = 6 * time.Hour

	bucketWidth = 15 * time.Second
)

// Objective is one SLI with a target. classify maps an event to
// good/bad, or skips it when the objective does not apply.
type Objective struct {
	Name        string
	Description string
	// Target is the good fraction the objective promises (e.g. 0.99).
	Target   float64
	classify func(Event) (bad, skip bool)

	ring      *ring
	prevState string
}

// Latency returns an objective promising that a target fraction of
// lineages complete within threshold. Errored lineages are skipped
// (availability owns them).
func Latency(name string, target float64, threshold time.Duration) *Objective {
	return &Objective{
		Name:        name,
		Description: "lineage completes within " + threshold.String(),
		Target:      target,
		classify: func(ev Event) (bool, bool) {
			if ev.Err {
				return false, true
			}
			return ev.Latency > threshold, false
		},
	}
}

// FirstAnswerSteps returns an objective promising that a target fraction
// of answer-bearing lineages deliver their first answer within maxSteps
// slice steps — the paper's steps-to-first-answer progressiveness
// signal. Lineages with no answers at all (legitimately empty results)
// and errored lineages are skipped.
func FirstAnswerSteps(name string, target float64, maxSteps int) *Objective {
	return &Objective{
		Name:        name,
		Description: "first answer within " + strconv.Itoa(maxSteps) + " slice steps",
		Target:      target,
		classify: func(ev Event) (bool, bool) {
			if ev.Err || ev.Answers == 0 {
				return false, true
			}
			return ev.StepsToFirstAnswer == 0 || ev.StepsToFirstAnswer > maxSteps, false
		},
	}
}

// CoverageAtBudget returns an objective promising that a target fraction
// of budgeted lineages reach at least minCoverage of their final answers
// when the budget runs out — the progressive contract: a bounded budget
// still buys a useful sound subset. Unbudgeted and errored lineages are
// skipped.
func CoverageAtBudget(name string, target, minCoverage float64) *Objective {
	return &Objective{
		Name:        name,
		Description: "coverage at budget exhaustion >= " + strconv.FormatFloat(minCoverage, 'g', -1, 64),
		Target:      target,
		classify: func(ev Event) (bool, bool) {
			if ev.Err || !ev.Budgeted {
				return false, true
			}
			return ev.Coverage < minCoverage, false
		},
	}
}

// Availability returns an objective counting errored or degraded
// lineages as bad — the "answers are complete and correct" promise.
func Availability(name string, target float64) *Objective {
	return &Objective{
		Name:        name,
		Description: "lineage completes without error or degradation",
		Target:      target,
		classify: func(ev Event) (bool, bool) {
			return ev.Err || ev.Degraded, false
		},
	}
}

// WindowStats is one rolling window's counts for one objective.
type WindowStats struct {
	Window      string  `json:"window"`
	Good        int64   `json:"good"`
	Bad         int64   `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	// Burn is BadFraction divided by the error budget (1 - target).
	Burn float64 `json:"burn"`
}

// Status is one objective's state at snapshot time.
type Status struct {
	Name        string        `json:"name"`
	Description string        `json:"description"`
	Target      float64       `json:"target"`
	State       string        `json:"state"`
	Windows     []WindowStats `json:"windows"`
}

// Engine evaluates a set of objectives over the event stream.
type Engine struct {
	mu         sync.Mutex
	objectives []*Objective
	reg        *obs.Registry
	now        func() time.Time
}

// NewEngine builds an engine exporting slo_* metrics into reg (nil:
// obs.Default).
func NewEngine(reg *obs.Registry, objectives ...*Objective) *Engine {
	if reg == nil {
		reg = obs.Default
	}
	reg.Describe("slo_good_total", "events counted good per objective")
	reg.Describe("slo_bad_total", "events counted bad per objective")
	reg.Describe("slo_burn_rate", "current burn rate per objective and window")
	reg.Describe("slo_state", "alert state per objective (0 ok, 1 warning, 2 page)")
	reg.Describe("slo_alert_transitions_total", "alert state transitions per objective and target state")
	e := &Engine{reg: reg, now: time.Now}
	for _, o := range objectives {
		e.Add(o)
	}
	return e
}

// WithClock overrides the engine's time source (tests). Returns e.
func (e *Engine) WithClock(now func() time.Time) *Engine {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.now = now
	return e
}

// Add registers an objective. Safe any time.
func (e *Engine) Add(o *Objective) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o.ring = newRing(bucketWidth, warnLong)
	o.prevState = StateOK
	e.objectives = append(e.objectives, o)
}

// Observe classifies ev under every objective. Nil-safe.
func (e *Engine) Observe(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	for _, o := range e.objectives {
		bad, skip := o.classify(ev)
		if skip {
			continue
		}
		o.ring.add(now, bad)
		if bad {
			e.reg.Counter("slo_bad_total", obs.Labels{"objective": o.Name}).Inc()
		} else {
			e.reg.Counter("slo_good_total", obs.Labels{"objective": o.Name}).Inc()
		}
	}
}

// burn converts a window's counts into a burn rate against the
// objective's error budget. An objective with target >= 1 has no budget:
// any bad event is an infinite burn, represented by a huge finite rate
// so JSON stays valid.
func burn(target float64, good, bad int64) (badFraction, rate float64) {
	total := good + bad
	if total == 0 {
		return 0, 0
	}
	badFraction = float64(bad) / float64(total)
	budget := 1 - target
	if budget <= 0 {
		if bad > 0 {
			return badFraction, 1e9
		}
		return badFraction, 0
	}
	return badFraction, badFraction / budget
}

// Snapshot evaluates every objective's windows and alert state, updates
// the slo_burn_rate / slo_state / slo_alert_transitions_total metrics,
// and returns the statuses. Nil-safe (returns nil).
func (e *Engine) Snapshot() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	out := make([]Status, 0, len(e.objectives))
	for _, o := range e.objectives {
		st := Status{Name: o.Name, Description: o.Description, Target: o.Target, State: StateOK}
		burns := make(map[time.Duration]float64, 4)
		for _, w := range []struct {
			label string
			span  time.Duration
		}{
			{"5m", pageShort}, {"30m", warnShort}, {"1h", pageLong}, {"6h", warnLong},
		} {
			good, bad := o.ring.totals(now, w.span)
			frac, rate := burn(o.Target, good, bad)
			burns[w.span] = rate
			st.Windows = append(st.Windows, WindowStats{
				Window: w.label, Good: good, Bad: bad, BadFraction: frac, Burn: rate,
			})
			e.reg.Gauge("slo_burn_rate", obs.Labels{"objective": o.Name, "window": w.label}).Set(rate)
		}
		switch {
		case burns[pageShort] >= PageBurn && burns[pageLong] >= PageBurn:
			st.State = StatePage
		case burns[warnShort] >= WarnBurn && burns[warnLong] >= WarnBurn:
			st.State = StateWarning
		}
		if st.State != o.prevState {
			e.reg.Counter("slo_alert_transitions_total", obs.Labels{"objective": o.Name, "to": st.State}).Inc()
			o.prevState = st.State
		}
		e.reg.Gauge("slo_state", obs.Labels{"objective": o.Name}).Set(stateValue(st.State))
		out = append(out, st)
	}
	return out
}

func stateValue(state string) float64 {
	switch state {
	case StatePage:
		return 2
	case StateWarning:
		return 1
	default:
		return 0
	}
}

// ring is a rolling window of good/bad counters in time-aligned buckets
// of fixed width, spanning the longest window the engine evaluates.
type ring struct {
	width     time.Duration
	good, bad []int64
	head      int
	headStart time.Time // bucket boundary the head bucket starts at
}

func newRing(width, span time.Duration) *ring {
	n := int(span / width)
	if n < 1 {
		n = 1
	}
	return &ring{width: width, good: make([]int64, n), bad: make([]int64, n)}
}

// advance rotates the ring so head covers the bucket containing now.
// Buckets are aligned to multiples of width, so the same wall-clock
// instant always lands in the same bucket regardless of call order.
func (r *ring) advance(now time.Time) {
	start := now.Truncate(r.width)
	if r.headStart.IsZero() {
		r.headStart = start
		return
	}
	if !start.After(r.headStart) {
		return // same bucket, or clock went backwards: keep the head
	}
	steps := int(start.Sub(r.headStart) / r.width)
	if steps >= len(r.good) {
		for i := range r.good {
			r.good[i], r.bad[i] = 0, 0
		}
		r.headStart = start
		return
	}
	for i := 0; i < steps; i++ {
		r.head = (r.head + 1) % len(r.good)
		r.good[r.head], r.bad[r.head] = 0, 0
	}
	r.headStart = start
}

func (r *ring) add(now time.Time, bad bool) {
	r.advance(now)
	if bad {
		r.bad[r.head]++
	} else {
		r.good[r.head]++
	}
}

// totals sums the most recent window worth of buckets (including the
// current, partially filled one).
func (r *ring) totals(now time.Time, window time.Duration) (good, bad int64) {
	r.advance(now)
	n := int(window / r.width)
	if n > len(r.good) {
		n = len(r.good)
	}
	for i := 0; i < n; i++ {
		idx := (r.head - i + len(r.good)) % len(r.good)
		good += r.good[idx]
		bad += r.bad[idx]
	}
	return good, bad
}
