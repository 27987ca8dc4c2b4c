package ping

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// epochBatch is one pre-planned update, with the exact triple set the
// store holds after it is applied.
type epochBatch struct {
	add    []rdf.Triple
	remove []rdf.Triple
}

// planBatches pre-encodes every term of every update batch into the
// dict (concurrent queries then only ever read it) and returns the
// batches plus the cumulative graph after each epoch: graphs[e] is the
// triple set at epoch e, graphs[0] the initial one.
func planBatches(rng *rand.Rand, g *rdf.Graph, n int) ([]epochBatch, []*rdf.Graph) {
	batches := make([]epochBatch, n)
	graphs := make([]*rdf.Graph, n+1)
	graphs[0] = g

	current := make(map[rdf.Triple]bool, g.Len())
	for _, tr := range g.Triples {
		current[tr] = true
	}

	for b := 0; b < n; b++ {
		var batch epochBatch
		for tr := range current {
			if rng.Float64() < 0.05 {
				batch.remove = append(batch.remove, tr)
			}
			if len(batch.remove) >= 6 {
				break
			}
		}
		for i := 0; i < 10; i++ {
			tr := rdf.Triple{
				S: g.Dict.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(60))),
				P: g.Dict.EncodeIRI(fmt.Sprintf("p%d", rng.Intn(6))),
				O: g.Dict.EncodeIRI(fmt.Sprintf("s%d", rng.Intn(60))),
			}
			batch.add = append(batch.add, tr)
		}
		for _, tr := range batch.remove {
			delete(current, tr)
		}
		for _, tr := range batch.add {
			current[tr] = true
		}
		ge := &rdf.Graph{Dict: g.Dict}
		for tr := range current {
			ge.AddID(tr)
		}
		ge.Dedup()
		batches[b] = batch
		graphs[b+1] = ge
	}
	return batches, graphs
}

// TestEpochChaosQueriesDuringUpdates is the concurrency property test of
// the snapshot-isolation tentpole, meant to run under -race: PQA runs
// race against a maintainer publishing epochs, and every run must be
// internally consistent with exactly ONE epoch — all steps sound w.r.t.
// that epoch's oracle and the final answer equal to it. A torn read
// (mixing sub-partition states from different epochs) fails the oracle
// check; an unsynchronized map or slice access fails the race detector.
func TestEpochChaosQueriesDuringUpdates(t *testing.T) {
	const (
		epochs  = 5
		readers = 4
	)
	rng := rand.New(rand.NewSource(42))
	g := nestedGraph(7, 60, 5)
	lay, err := hpart.Partition(g, hpart.Options{FS: dfs.New(dfs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	store := hpart.NewStore(lay)
	maint, err := hpart.NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}

	batches, graphs := planBatches(rng, g, epochs)

	queries := []*sparql.Query{
		sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y }`),
		sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`),
		sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`),
	}
	// Per-epoch exact oracles, computed up front on the pre-planned
	// graphs so readers need no locking.
	oracleSets := make([][]map[string]bool, epochs+1)
	for e := 0; e <= epochs; e++ {
		oracleSets[e] = make([]map[string]bool, len(queries))
		for qi := range queries {
			oracleSets[e][qi] = answerSet(engine.Naive(graphs[e], queries[qi]).Distinct())
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: publish each batch as a new epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, b := range batches {
			if err := maint.Apply(b.add, b.remove); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()

	// Readers: hammer PQA until the writer is done, then one final pass
	// at the settled epoch.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			final := false
			for i := 0; ; i++ {
				select {
				case <-done:
					final = true
				default:
				}
				qi := (r + i) % len(queries)
				p := NewProcessorStore(store, Options{
					Context: dataflow.NewContext(1),
				})
				res, err := p.PQA(queries[qi])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if res.Epoch > epochs {
					t.Errorf("reader %d: impossible epoch %d", r, res.Epoch)
					return
				}
				oracle := oracleSets[res.Epoch][qi]
				for _, st := range res.Steps {
					if st.Epoch != res.Epoch {
						t.Errorf("reader %d: step epoch %d != run epoch %d", r, st.Epoch, res.Epoch)
						return
					}
					if !subset(answerSet(st.Answers), oracle) {
						t.Errorf("reader %d: step %d of epoch-%d run has answers outside the oracle (torn read?)", r, st.Step, res.Epoch)
						return
					}
				}
				got := answerSet(res.Final)
				if len(got) != len(oracle) || !subset(got, oracle) {
					t.Errorf("reader %d: epoch-%d run final has %d answers, oracle %d", r, res.Epoch, len(got), len(oracle))
					return
				}
				if final {
					if res.Epoch != epochs {
						t.Errorf("reader %d: post-settle run pinned epoch %d, want %d", r, res.Epoch, epochs)
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// Nothing pinned any more: every superseded generation must be gone.
	if st := store.Stats(); st.RetiredFiles != 0 || st.PinnedQueries != 0 {
		t.Fatalf("after settle: %+v, want no retired files or pins", st)
	}
}

// TestPQAPinBlocksGC drives the pin/GC interaction from the query side:
// while a PQA run is between steps, an update publishes a new epoch, and
// the superseded files must survive until the run finishes.
func TestPQAPinBlocksGC(t *testing.T) {
	g := nestedGraph(3, 50, 4)
	lay, err := hpart.Partition(g, hpart.Options{FS: dfs.New(dfs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	store := hpart.NewStore(lay)
	maint, err := hpart.NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcessorStore(store, Options{Context: dataflow.NewContext(1)})

	add := []rdf.Triple{{
		S: g.Dict.EncodeIRI("s0"),
		P: g.Dict.EncodeIRI("p9"),
		O: g.Dict.EncodeIRI("s1"),
	}}

	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?y <p0> ?z }`)
	applied := false
	err = p.PQAStepsCtx(context.Background(), q, func(st StepResult) bool {
		if applied {
			return true
		}
		applied = true
		// The run holds its pin right now: publish an epoch under it.
		if err := maint.Apply(add, nil); err != nil {
			t.Errorf("apply: %v", err)
			return false
		}
		if got := store.Stats(); got.RetiredFiles == 0 || got.FilesRemoved != 0 {
			t.Errorf("mid-run: stats %+v, want retired files held for the pin", got)
		}
		if st.Epoch != 0 {
			t.Errorf("mid-run step pinned epoch %d, want 0", st.Epoch)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("PQA delivered no steps")
	}

	// The run released its pin on return; the GC must have collected the
	// epoch-0 generations the update superseded.
	st := store.Stats()
	if st.RetiredFiles != 0 || st.FilesRemoved == 0 || st.PinnedQueries != 0 {
		t.Fatalf("post-run: stats %+v, want retired files collected", st)
	}
}
