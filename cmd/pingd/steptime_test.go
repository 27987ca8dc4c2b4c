package main

import (
	"math"
	"net/url"
	"strings"
	"testing"

	"ping/internal/obs"
)

// followLineage runs q with max_steps=1 and follows /resume until the
// done line, which it returns with the number of segments taken.
func followLineage(t *testing.T, base, q string) (rline, int) {
	t.Helper()
	lines := getRLines(t, queryURL(base, q)+"&max_steps=1")
	for segments := 1; ; segments++ {
		last := lines[len(lines)-1]
		if last.Done {
			return last, segments
		}
		if !last.Paused || last.Cursor == "" {
			t.Fatalf("segment %d ended without pause or cursor: %+v", segments, last)
		}
		if segments > 50 {
			t.Fatalf("lineage did not finish after %d segments", segments)
		}
		lines = getRLines(t, base+"/resume?cursor="+url.QueryEscape(last.Cursor)+"&max_steps=1")
	}
}

// TestWideEventTaskMsIsStepTime: a lineage's task_ms, the ledger's CPU
// attribution, is its step time — the sum of its step_ms (each truncated
// to the microsecond, so within 1 µs per step), across every segment.
func TestWideEventTaskMsIsStepTime(t *testing.T) {
	eventBuf := &lockedBuffer{}
	reg := obs.NewRegistry()
	events := obs.NewEventLog(eventBuf, 64, reg)
	_, ts, _ := newTestServer(t, serverConfig{Metrics: reg, Events: events})

	done, segments := followLineage(t, ts.URL, `SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`)
	if segments < 2 {
		t.Fatalf("lineage took %d segment; the test needs a resumed one", segments)
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadWideEvents(strings.NewReader(eventBuf.String()))
	if err != nil || len(evs) != 1 {
		t.Fatalf("want one wide event, got %d (%v)", len(evs), err)
	}
	ev := evs[0]
	if ev.Steps != done.Steps || len(ev.StepMs) != ev.Steps {
		t.Fatalf("event has %d steps and %d step_ms, lineage %d steps", ev.Steps, len(ev.StepMs), done.Steps)
	}
	sum := 0.0
	for _, ms := range ev.StepMs {
		sum += ms
	}
	if diff := ev.TaskMs - sum; ev.TaskMs <= 0 || math.Abs(diff) > 0.001*float64(ev.Steps) {
		t.Errorf("task_ms %.6f, sum of step_ms %.6f over %d steps", ev.TaskMs, sum, ev.Steps)
	}
}

// TestNestedClosureResumesThroughServer: a closure nested in a closure
// pauses after one step, resumes through /resume (its checkpoint holds
// the query's rendering, which must re-parse) and ends with the count of
// an unbudgeted run.
func TestNestedClosureResumesThroughServer(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})
	const qs = `SELECT * WHERE { ?x (<p0>+)+ ?y }`
	full := getRLines(t, queryURL(ts.URL, qs))
	want := full[len(full)-1]
	if !want.Done || want.Steps < 2 {
		t.Fatalf("unbudgeted run: %+v, want done over several steps", want)
	}
	done, segments := followLineage(t, ts.URL, qs)
	if segments < 2 {
		t.Fatalf("lineage took %d segment; nothing was resumed", segments)
	}
	if done.Answers != want.Answers || !done.Exact {
		t.Errorf("resumed lineage done with %d answers (exact %v), unbudgeted run %d",
			done.Answers, done.Exact, want.Answers)
	}
}
