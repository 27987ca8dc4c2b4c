package ping

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/faults"
	"ping/internal/hpart"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// chaosConfig keeps blocks small so sub-partition files span several
// blocks and nodes, and retries cheap so fault-heavy runs stay fast.
func chaosConfig(replication int) dfs.Config {
	return dfs.Config{
		BlockSize:   256,
		DataNodes:   4,
		Replication: replication,
		MaxRetries:  1,
		RetryBase:   -1, // retry without sleeping
	}
}

func chaosLayout(t *testing.T, seed int64, replication int) (*hpart.Layout, *dfs.FS, *rdf.Graph) {
	t.Helper()
	g := nestedGraph(seed, 50, 5)
	fs := dfs.New(chaosConfig(replication))
	lay, err := hpart.Partition(g, hpart.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return lay, fs, g
}

// randomPlan draws a fault plan: each node independently gets a read
// error rate, a corruption rate, and possibly a down window.
func randomPlan(rng *rand.Rand, nodes int) faults.Plan {
	plan := faults.Plan{Seed: rng.Int63(), Nodes: make(map[int]faults.NodePlan)}
	rates := []float64{0, 0, 0.2, 0.5, 0.9}
	for n := 0; n < nodes; n++ {
		np := faults.NodePlan{
			ReadErrorRate: rates[rng.Intn(len(rates))],
			CorruptRate:   rates[rng.Intn(len(rates))],
		}
		if rng.Intn(4) == 0 {
			np.DownFrom = int64(rng.Intn(3))
			np.DownUntil = np.DownFrom + int64(rng.Intn(10))
		}
		plan.Nodes[n] = np
	}
	return plan
}

// TestChaosDegradedAnswersAreSound is the chaos property test of the
// fault-injection subsystem: under arbitrary seeded fault plans with no
// replication to fall back on, every answer a Degrade-mode PQA run
// delivers must be a subset of the naive oracle (Lemma 4.4 extended to
// missing sub-partitions), answers must stay monotone across steps, and
// a run that ends non-degraded must be exact.
func TestChaosDegradedAnswersAreSound(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		lay, fs, g := chaosLayout(t, seed, 1)
		rng := rand.New(rand.NewSource(seed * 31))
		in := faults.New(randomPlan(rng, 4))
		in.Attach(fs)
		proc := NewProcessor(lay, Options{FailurePolicy: Degrade})

		for _, qs := range testQueries {
			q := sparql.MustParse(qs)
			oracle := answerSet(engine.Naive(g, q).Distinct())
			res, err := proc.PQA(q)
			if err != nil {
				t.Fatalf("seed %d %q: degraded run errored: %v", seed, qs, err)
			}
			prev := map[string]bool{}
			for i, step := range res.Steps {
				cur := answerSet(step.Answers)
				if !subset(prev, cur) {
					t.Fatalf("seed %d %q: step %d lost answers under faults", seed, qs, i+1)
				}
				if !subset(cur, oracle) {
					t.Fatalf("seed %d %q: step %d produced a false positive under faults", seed, qs, i+1)
				}
				if step.Degraded != (len(step.MissingSubParts) > 0) {
					t.Fatalf("seed %d %q: step %d Degraded flag inconsistent with missing list", seed, qs, i+1)
				}
				prev = cur
			}
			got := answerSet(res.Final)
			if res.Exact {
				if len(got) != len(oracle) || !subset(got, oracle) {
					t.Fatalf("seed %d %q: Exact run has %d answers, oracle %d", seed, qs, len(got), len(oracle))
				}
			} else if !subset(got, oracle) {
				t.Fatalf("seed %d %q: degraded final answers are not a subset", seed, qs)
			}
		}
	}
}

// TestChaosSingleNodeFailureStaysExact checks the failover guarantee:
// with Replication >= 2 every block has replicas on two distinct nodes,
// so any single node being fully down must leave every query exact, with
// no behavioural change visible to the caller except the health stats.
func TestChaosSingleNodeFailureStaysExact(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for down := 0; down < 4; down++ {
			lay, fs, g := chaosLayout(t, seed, 2)
			in := faults.New(faults.Plan{})
			in.Attach(fs)
			in.KillNode(down)

			for _, policy := range []FailurePolicy{FailFast, Degrade} {
				proc := NewProcessor(lay, Options{FailurePolicy: policy})
				for _, qs := range testQueries {
					q := sparql.MustParse(qs)
					oracle := answerSet(engine.Naive(g, q).Distinct())
					res, err := proc.PQA(q)
					if err != nil {
						t.Fatalf("seed %d node %d down policy %v %q: %v", seed, down, policy, qs, err)
					}
					if !res.Exact {
						t.Fatalf("seed %d node %d down policy %v %q: result degraded despite replication", seed, down, policy, qs)
					}
					got := answerSet(res.Final)
					if len(got) != len(oracle) || !subset(got, oracle) {
						t.Fatalf("seed %d node %d down policy %v %q: %d answers, oracle %d",
							seed, down, policy, qs, len(got), len(oracle))
					}
				}
			}
			if u := fs.Usage(); u.NodeReadErrors[down] == 0 {
				t.Errorf("seed %d: no read errors recorded against downed node %d", seed, down)
			}
		}
	}
}

// TestChaosCorruptNodeStaysExact: a node that corrupts every payload is
// caught by the block checksums and masked by failover, keeping answers
// exact at Replication 2.
func TestChaosCorruptNodeStaysExact(t *testing.T) {
	lay, fs, g := chaosLayout(t, 1, 2)
	in := faults.New(faults.Plan{Seed: 5, Nodes: map[int]faults.NodePlan{
		2: {CorruptRate: 1},
	}})
	in.Attach(fs)
	proc := NewProcessor(lay, Options{})
	for _, qs := range testQueries {
		q := sparql.MustParse(qs)
		oracle := answerSet(engine.Naive(g, q).Distinct())
		res, err := proc.PQA(q)
		if err != nil {
			t.Fatalf("%q: %v", qs, err)
		}
		got := answerSet(res.Final)
		if !res.Exact || len(got) != len(oracle) || !subset(got, oracle) {
			t.Fatalf("%q: corrupt node changed the answer", qs)
		}
	}
}

// TestChaosFailFastSurfacesTypedError: without replication, FailFast
// aborts with an error chain the caller can inspect.
func TestChaosFailFastSurfacesTypedError(t *testing.T) {
	lay, fs, _ := chaosLayout(t, 2, 1)
	in := faults.New(faults.Plan{})
	in.Attach(fs)
	in.KillNode(0)
	in.KillNode(1)
	in.KillNode(2)
	in.KillNode(3)
	proc := NewProcessor(lay, Options{})
	_, err := proc.PQA(sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y }`))
	if err == nil {
		t.Fatal("expected FailFast error with every node down")
	}
	if !errors.Is(err, dfs.ErrNoHealthyReplica) {
		t.Fatalf("err = %v, want wrapped ErrNoHealthyReplica", err)
	}
}

// TestChaosFullyDegradedRunIsEmptyButSound: every node down under
// Degrade yields an empty (still sound) answer and a non-exact result.
func TestChaosFullyDegradedRunIsEmptyButSound(t *testing.T) {
	lay, fs, _ := chaosLayout(t, 3, 1)
	in := faults.New(faults.Plan{})
	in.Attach(fs)
	for n := 0; n < 4; n++ {
		in.KillNode(n)
	}
	proc := NewProcessor(lay, Options{FailurePolicy: Degrade})
	res, err := proc.PQA(sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("fully degraded run claims exactness")
	}
	if res.Final.Card() != 0 {
		t.Errorf("fully degraded run returned %d answers from unreadable storage", res.Final.Card())
	}
	last := res.Steps[len(res.Steps)-1]
	if !last.Degraded || len(last.MissingSubParts) == 0 {
		t.Error("missing sub-partitions not reported")
	}
}

// TestPQACtxCancellation: a cancelled context aborts the run with
// ctx.Err() even while storage is stuck retrying.
func TestPQACtxCancellation(t *testing.T) {
	// Make reads hang in long retry backoffs.
	cfg := chaosConfig(1)
	cfg.MaxRetries, cfg.RetryBase, cfg.RetryMax = 1000, time.Hour, time.Hour
	fs := dfs.New(cfg)
	lay, err := hpart.Partition(nestedGraph(4, 50, 5), hpart.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(faults.Plan{})
	in.Attach(fs)
	for n := 0; n < 4; n++ {
		in.KillNode(n)
	}
	proc := NewProcessor(lay, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := proc.PQACtx(ctx, sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y }`))
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled PQA did not return (stuck in storage retry)")
	}
}

// TestPQACtxDeadline: an expired deadline surfaces as DeadlineExceeded.
func TestPQACtxDeadline(t *testing.T) {
	lay, _, _ := chaosLayout(t, 5, 1)
	proc := NewProcessor(lay, Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := proc.PQACtx(ctx, sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y }`))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEQAFullDegrades mirrors the PQA soundness property for one-shot
// exact answering.
func TestEQAFullDegrades(t *testing.T) {
	lay, fs, g := chaosLayout(t, 6, 1)
	in := faults.New(faults.Plan{Seed: 99, Nodes: map[int]faults.NodePlan{
		0: {ReadErrorRate: 1},
	}})
	in.Attach(fs)
	proc := NewProcessor(lay, Options{FailurePolicy: Degrade})
	for _, qs := range testQueries {
		q := sparql.MustParse(qs)
		oracle := answerSet(engine.Naive(g, q).Distinct())
		r, err := proc.EQAFull(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", qs, err)
		}
		got := answerSet(r.Answers)
		if !subset(got, oracle) {
			t.Fatalf("%q: degraded EQA produced a false positive", qs)
		}
		if r.Exact && (len(got) != len(oracle)) {
			t.Fatalf("%q: EQA claims exact with %d answers, oracle %d", qs, len(got), len(oracle))
		}
		if !r.Exact && len(r.MissingSubParts) == 0 {
			t.Fatalf("%q: non-exact EQA reports no missing sub-partitions", qs)
		}
	}
}
