package workload

import (
	"testing"
	"time"

	"ping/internal/obs"
)

// TestEstimateCostPrefersProfileCPU: admission control wants per-run
// cost, and the ledger is its one source: the estimate is the mean of
// the task seconds the fingerprint's lineages recorded. An unseen
// fingerprint costs zero (meaning "unknown — admit").
func TestEstimateCostPrefersProfileCPU(t *testing.T) {
	p := NewProfiler(Options{Metrics: obs.NewRegistry()})

	if got := p.EstimateCost("never-seen"); got != 0 {
		t.Errorf("unknown fingerprint cost = %v, want 0", got)
	}

	// Two lineages with 300ms task time each → mean 300ms.
	for i := 0; i < 2; i++ {
		p.Observe(obs.WideEvent{Fingerprint: "fp-a", Canonical: "q", Shape: "star", LatencyMs: 10, TaskMs: 300})
	}
	if got := p.EstimateCost("fp-a"); got != 300*time.Millisecond {
		t.Errorf("ledger mean = %v, want 300ms", got)
	}

	// A third, cheaper lineage moves the mean: (300+300+0)/3 = 200ms.
	p.Observe(obs.WideEvent{Fingerprint: "fp-a", Canonical: "q", Shape: "star", LatencyMs: 10})
	if got := p.EstimateCost("fp-a"); (got - 200*time.Millisecond).Abs() > time.Microsecond {
		t.Errorf("ledger mean after a free run = %v, want 200ms", got)
	}
}

// TestTopByCostOrdering: /resources sorts by measured cost — ledger
// task seconds, then latency — not by latency like the default
// Snapshot order.
func TestTopByCostOrdering(t *testing.T) {
	p := NewProfiler(Options{Metrics: obs.NewRegistry()})
	obsv := func(fp string, latMs, taskMs float64) {
		p.Observe(obs.WideEvent{Fingerprint: fp, Canonical: "q " + fp, Shape: "star", LatencyMs: latMs, TaskMs: taskMs})
	}
	// fp-slow has the worst latency but no measured cost; fp-cpu has
	// the most task time, fp-task less.
	obsv("fp-slow", 1000, 0)
	obsv("fp-task", 10, 500)
	obsv("fp-cpu", 1, 700)

	got := p.TopByCost(0)
	want := []string{"fp-cpu", "fp-task", "fp-slow"}
	if len(got) != len(want) {
		t.Fatalf("TopByCost returned %d rows, want %d", len(got), len(want))
	}
	for i, fp := range want {
		if got[i].Fingerprint != fp {
			t.Errorf("rank %d = %s, want %s (full: %v)", i, got[i].Fingerprint, fp,
				[]string{got[0].Fingerprint, got[1].Fingerprint, got[2].Fingerprint})
		}
	}
	if top := p.TopByCost(1); len(top) != 1 || top[0].Fingerprint != "fp-cpu" {
		t.Errorf("TopByCost(1) = %v", top)
	}
}
