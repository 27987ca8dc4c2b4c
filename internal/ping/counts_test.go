package ping

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ping/internal/dfs"
	"ping/internal/gmark"
	"ping/internal/hpart"
	"ping/internal/obs/prof"
	"ping/internal/rdf"
	"ping/internal/sparql"
	"ping/internal/workload"
)

var updateCounts = flag.Bool("update-counts", false, "rewrite testdata/counts-seed42.json")

const countsFile = "testdata/counts-seed42.json"

// countsSeed seeds data, workload and hold-out alike.
const countsSeed = 42

// countsDatasets are the end-to-end benchmark's datasets at a tenth of
// its scales (shop ×10, dbpedia ×20, social ×4).
var countsDatasets = []struct {
	name  string
	scale float64
}{{"shop", 1}, {"dbpedia", 2}, {"social", 0.4}}

// runCounts is what one query run did, from counters the program keeps:
// the step results, the engine statistics of each step, and the query's
// resource ledger. Wall-clock time is left out; everything here repeats
// exactly for a seed.
type runCounts struct {
	Segments     int   `json:"segments,omitempty"`
	Steps        int   `json:"steps,omitempty"`
	BarrenSteps  int   `json:"barren_steps,omitempty"`
	SubParts     int   `json:"subparts,omitempty"`
	RowsLoaded   int64 `json:"rows_loaded,omitempty"`
	Answers      int64 `json:"answers"`
	CacheHits    int64 `json:"cache_hits,omitempty"`
	CacheMisses  int64 `json:"cache_misses,omitempty"`
	Joins        int   `json:"joins"`
	Intermediate int64 `json:"intermediate_rows"`
	PeakRows     int64 `json:"peak_rows"`
	BytesDecoded int64 `json:"bytes_decoded"`
	StorageRead  int64 `json:"storage_bytes_read"`
	PeakRelRows  int64 `json:"peak_relation_rows"`
}

func (c *runCounts) step(sr StepResult) {
	c.Steps++
	if sr.NewAnswers == 0 {
		c.BarrenSteps++
	}
	c.SubParts += len(sr.NewSubParts)
	c.RowsLoaded += sr.RowsLoadedStep
	c.Answers += int64(sr.NewAnswers)
	c.CacheHits += sr.CacheHits
	c.CacheMisses += sr.CacheMisses
	c.Joins += sr.stats.Joins
	c.Intermediate += sr.stats.IntermediateRows
	c.PeakRows = max(c.PeakRows, sr.stats.PeakRows)
}

func (c *runCounts) ledger(l *prof.Ledger) {
	s := l.Snapshot()
	c.BytesDecoded, c.StorageRead, c.PeakRelRows = s.BytesDecoded, s.StorageBytesRead, s.PeakRelationRows
}

// queryCounts is one query of the mix: a PQA run, an EQA run, and a
// two-step budgeted segment resumed to the end.
type queryCounts struct {
	Shape  string    `json:"shape"`
	FP     string    `json:"fp"`
	PQA    runCounts `json:"pqa"`
	EQA    runCounts `json:"eqa"`
	Budget runCounts `json:"budget"`
}

// batchCounts is one held-out update batch: what the maintainer, the
// dictionary save and the manifest save wrote to the block store.
type batchCounts struct {
	Triples       int   `json:"triples"`
	BlocksWritten int64 `json:"blocks_written"`
	BytesWritten  int64 `json:"bytes_written"`
	BlocksDeleted int64 `json:"blocks_deleted"`
}

// countingStore counts the block writes and deletes that pass through.
type countingStore struct {
	dfs.BlockStore
	mu                   sync.Mutex
	puts, bytes, deletes int64
}

func (s *countingStore) Put(node int, id uint64, data []byte) error {
	s.mu.Lock()
	s.puts++
	s.bytes += int64(len(data))
	s.mu.Unlock()
	return s.BlockStore.Put(node, id, data)
}

func (s *countingStore) Del(node int, id uint64) error {
	s.mu.Lock()
	s.deletes++
	s.mu.Unlock()
	return s.BlockStore.Del(node, id)
}

func (s *countingStore) take() (puts, bytes, deletes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	puts, bytes, deletes = s.puts, s.bytes, s.deletes
	s.puts, s.bytes, s.deletes = 0, 0, 0
	return
}

// TestCountsMatchBaseline is the exact-count gate. For each dataset it
// runs the generated query mix and the held-out update batches, records
// what each query and batch did in counts (rows loaded, answers added,
// joins, intermediate rows, bytes decoded and read, blocks written), and
// compares every count with testdata/counts-seed42.json. A change that
// moves a count fails here; rerun with -update-counts to rewrite the
// file, so the diff shows in review.
//
// The processor runs one dataflow worker (Options{}). With several, the
// sub-partition cache's eviction order follows the order of parallel
// reads, and hits and misses drift between identical runs (dbpedia's PQA
// runs read 82/188, then 81/189 with four workers). With one worker,
// repeated runs agree on every count.
func TestCountsMatchBaseline(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"datasets\": [", countsSeed)
	for i, ds := range countsDatasets {
		if i > 0 {
			b.WriteString(",")
		}
		writeDatasetCounts(t, &b, ds.name, ds.scale)
	}
	b.WriteString("\n  ]\n}\n")
	got := b.String()

	if *updateCounts {
		if err := os.WriteFile(countsFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countsFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestCountsMatchBaseline -update-counts)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gl), len(wl)) && shown < 5; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d\n want %s\n  got %s", countsFile, i+1, w, g)
			shown++
		}
	}
	t.Error("counts differ from the baseline; if the change is intended, rerun with -update-counts and commit the diff")
}

// writeDatasetCounts builds one dataset's store, runs its mix and its
// updates, and writes the counts as one JSON object with one line per
// query and per batch.
func writeDatasetCounts(t *testing.T, b *strings.Builder, name string, scale float64) {
	t.Helper()
	nd := gmark.DatasetByName(name)
	if nd == nil {
		t.Fatalf("unknown dataset %q", name)
	}
	data := nd.Schema.Generate(scale, countsSeed)
	base, heldOut := holdOut(data.Graph, countsSeed)

	fs, err := dfs.NewOnDisk(filepath.Join(t.TempDir(), "store"), dfs.Config{DataNodes: 4, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := hpart.Partition(base, hpart.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := lay.SaveDict(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	counter := &countingStore{}
	fs.WrapStore(func(s dfs.BlockStore) dfs.BlockStore { counter.BlockStore = s; return counter })

	store := hpart.NewStore(lay)
	proc := NewProcessorStore(store, Options{})
	fmt.Fprintf(b, "\n    {\n      \"name\": %q, \"scale\": %g, \"triples\": %d, \"held_out\": %d,\n      \"queries\": [",
		name, scale, len(base.Triples), len(heldOut))
	for i, lq := range data.GenerateWorkload(gmark.StandardWorkloadConfig(name, 5), countsSeed).All() {
		qc := runQueryCounts(t, proc, lq)
		writeLine(t, b, i, qc)
	}
	b.WriteString("\n      ],\n      \"batches\": [")

	m, err := hpart.NewStoreMaintainer(store)
	if err != nil {
		t.Fatal(err)
	}
	counter.take()
	for i, batch := range updateBatches(heldOut) {
		if err := m.Apply(batch, nil); err != nil {
			t.Fatal(err)
		}
		if err := store.Current().SaveDict(); err != nil {
			t.Fatal(err)
		}
		if err := fs.SaveManifest(); err != nil {
			t.Fatal(err)
		}
		bc := batchCounts{Triples: len(batch)}
		bc.BlocksWritten, bc.BytesWritten, bc.BlocksDeleted = counter.take()
		writeLine(t, b, i, bc)
	}
	b.WriteString("\n      ]\n    }")
}

func writeLine(t *testing.T, b *strings.Builder, i int, v any) {
	t.Helper()
	line, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if i > 0 {
		b.WriteString(",")
	}
	b.WriteString("\n        ")
	b.Write(line)
}

// runQueryCounts runs one query three ways, each under its own ledger.
func runQueryCounts(t *testing.T, proc *Processor, lq gmark.LabeledQuery) queryCounts {
	t.Helper()
	// Round-trip through the text, as every served query does.
	q, err := sparql.Parse(lq.Query.String())
	if err != nil {
		t.Fatal(err)
	}
	qc := queryCounts{Shape: lq.Shape, FP: workload.Fingerprint(q)}

	led := prof.NewLedger()
	ctx := prof.WithLedger(context.Background(), led)
	if err := proc.PQAStepsCtx(ctx, q, func(sr StepResult) bool { qc.PQA.step(sr); return true }); err != nil {
		t.Fatalf("PQA %s: %v", qc.FP, err)
	}
	qc.PQA.ledger(led)

	led = prof.NewLedger()
	ctx = prof.WithLedger(context.Background(), led)
	ex, err := proc.EQAFull(ctx, q)
	if err != nil {
		t.Fatalf("EQA %s: %v", qc.FP, err)
	}
	qc.EQA.Answers = int64(ex.Answers.Card())
	qc.EQA.Joins, qc.EQA.Intermediate, qc.EQA.PeakRows = ex.Stats.Joins, ex.Stats.IntermediateRows, ex.Stats.PeakRows
	qc.EQA.ledger(led)

	led = prof.NewLedger()
	ctx = prof.WithLedger(context.Background(), led)
	fn := func(sr StepResult, _ *Checkpoint) bool { qc.Budget.step(sr); return true }
	st, err := proc.PQARunOn(ctx, nil, q, Budget{MaxSteps: 2}, fn)
	qc.Budget.Segments++
	if err == nil && !st.Done {
		st, err = proc.PQAResumeRun(ctx, nil, st.Checkpoint, Budget{}, fn)
		qc.Budget.Segments++
	}
	if err != nil {
		t.Fatalf("budgeted run %s: %v", qc.FP, err)
	}
	if !st.Done {
		t.Fatalf("budgeted run %s: resume stopped at %s", qc.FP, st.Reason)
	}
	qc.Budget.ledger(led)
	// Every way of running a query ends at its exact answer.
	if qc.PQA.Answers != qc.EQA.Answers || qc.Budget.Answers != qc.EQA.Answers {
		t.Errorf("%s: PQA %d, budgeted %d, EQA %d answers", qc.FP, qc.PQA.Answers, qc.Budget.Answers, qc.EQA.Answers)
	}
	return qc
}

// holdOut splits off the triples of a seeded tenth of the subjects, the
// way the end-to-end benchmark picks the triples its writer posts.
// Generated triples are in SPO order, so each subject's triples are
// contiguous.
func holdOut(g *rdf.Graph, seed int64) (base *rdf.Graph, heldOut []rdf.Triple) {
	rng := rand.New(rand.NewSource(seed))
	base = &rdf.Graph{Dict: g.Dict}
	hold := false
	for i, t := range g.Triples {
		if i == 0 || t.S != g.Triples[i-1].S {
			hold = rng.Float64() < 0.1
		}
		if hold {
			heldOut = append(heldOut, t)
		} else {
			base.Triples = append(base.Triples, t)
		}
	}
	return base, heldOut
}

// updateBatches deals the held-out subjects round-robin into a fixed
// number of batches, as the benchmark's writer deals them into 200-triple
// batches: every batch gets the same mix of classes and levels. A batch
// rewrites most level files whatever its size, so the count, not the
// size, sets the test's time; 66 batches of 200 on dbpedia took 6 s.
func updateBatches(heldOut []rdf.Triple) [][]rdf.Triple {
	const n = 10
	out := make([][]rdf.Triple, n)
	subject := -1
	for i, t := range heldOut {
		if i == 0 || t.S != heldOut[i-1].S {
			subject++
		}
		out[subject%n] = append(out[subject%n], t)
	}
	return out
}
