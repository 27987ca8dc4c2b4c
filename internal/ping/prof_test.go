package ping

import (
	"context"
	"testing"
	"time"

	"ping/internal/obs/prof"
	"ping/internal/sparql"
	"ping/internal/workload"
)

// TestEnsureQueryFP: every execution entry point funnels through
// ensureQueryFP, so benchmarks and embedders that never heard of
// fingerprints still get their CPU samples attributed per query class.
func TestEnsureQueryFP(t *testing.T) {
	q, err := sparql.Parse(`SELECT * WHERE { ?s <p0> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ensureQueryFP(context.Background(), q)
	if got, want := prof.QueryFP(ctx), workload.Fingerprint(q); got != want {
		t.Errorf("attached fp %q, want workload fingerprint %q", got, want)
	}

	// A caller-supplied fingerprint (e.g. pingd's, which must match its
	// ledger key) wins over the derived one.
	pre := prof.WithQueryFP(context.Background(), "caller-fp")
	if got := prof.QueryFP(ensureQueryFP(pre, q)); got != "caller-fp" {
		t.Errorf("caller fingerprint overwritten with %q", got)
	}
}

// TestLedgerTaskTimeIsStepTime: the ledger's TaskNanos is the sum of
// the steps' Elapsed (load + evaluate), for a PQA run and for a
// budgeted run resumed to the end, whose segments share one ledger as
// pingd's lineages do.
func TestLedgerTaskTimeIsStepTime(t *testing.T) {
	proc := NewProcessor(mustPartition(t, nestedGraph(1, 50, 5)), Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z }`)
	led := prof.NewLedger()
	ctx := prof.WithLedger(context.Background(), led)
	var sum time.Duration
	steps := 0
	add := func(sr StepResult, _ *Checkpoint) bool {
		sum += sr.Elapsed
		steps++
		return true
	}

	if _, err := proc.PQARunOn(ctx, nil, q, Budget{}, add); err != nil {
		t.Fatal(err)
	}
	if steps < 2 {
		t.Fatalf("the run took %d step; the test needs several", steps)
	}
	if got := led.Snapshot().TaskNanos; got != int64(sum) {
		t.Errorf("PQA run: TaskNanos %d, steps' Elapsed sum %d", got, sum)
	}

	led, sum, steps = prof.NewLedger(), 0, 0
	ctx = prof.WithLedger(context.Background(), led)
	st, err := proc.PQARunOn(ctx, nil, q, Budget{MaxSteps: 1}, add)
	if err != nil {
		t.Fatal(err)
	}
	for segments := 1; !st.Done; segments++ {
		if segments > 10 {
			t.Fatal("budgeted run never finished")
		}
		if st, err = proc.PQAResumeRun(ctx, nil, st.Checkpoint, Budget{MaxSteps: 1}, add); err != nil {
			t.Fatal(err)
		}
	}
	if steps < 2 {
		t.Fatalf("the budgeted run took %d step; nothing was resumed", steps)
	}
	if got := led.Snapshot().TaskNanos; got != int64(sum) {
		t.Errorf("resumed run: TaskNanos %d, steps' Elapsed sum %d", got, sum)
	}
}
