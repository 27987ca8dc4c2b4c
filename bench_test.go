// Package ping_bench holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (§5), plus
// ablation and micro benchmarks. Each experiment benchmark executes the
// same code path as `pingbench -exp <id>` at a reduced dataset scale so
// the whole suite runs in minutes; use cmd/pingbench for full-scale runs.
package ping_bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"ping/internal/baseline/s2rdf"
	"ping/internal/baseline/worq"
	"ping/internal/bloom"
	"ping/internal/columnar"
	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/faults"
	"ping/internal/gmark"
	"ping/internal/harness"
	"ping/internal/hpart"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// benchSuite is shared across experiment benchmarks so datasets and
// layouts are generated once.
var (
	suiteOnce sync.Once
	suite     *harness.Suite
)

func benchSuite() *harness.Suite {
	suiteOnce.Do(func() {
		suite = harness.NewSuite(2, 3, 0.15, 42)
	})
	return suite
}

func runExperiment(b *testing.B, id string, datasets []string) {
	b.Helper()
	s := benchSuite()
	// Warm the dataset cache outside the timed region.
	if _, err := s.Run(id, datasets); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Run(id, datasets)
		if err != nil {
			b.Fatal(err)
		}
		io.Discard.Write([]byte(r.Body))
	}
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset & workload
// characteristics).
func BenchmarkTable1Datasets(b *testing.B) {
	runExperiment(b, "table1", []string{"uniprot", "shop", "lubm"})
}

// BenchmarkFig5Distribution regenerates Fig. 5 (triples per hierarchy
// level).
func BenchmarkFig5Distribution(b *testing.B) {
	runExperiment(b, "fig5", []string{"uniprot", "shop", "social", "lubm", "yago", "dbpedia"})
}

// BenchmarkFig6PQA regenerates Fig. 6 (progressive runtime / loaded rows /
// coverage per slice) on the Uniprot and Shop workloads.
func BenchmarkFig6PQA(b *testing.B) {
	runExperiment(b, "fig6", []string{"uniprot", "shop"})
}

// BenchmarkFig7Preprocessing regenerates Fig. 7 (preprocessing time and
// reduction factor for PING vs S2RDF vs WORQ).
func BenchmarkFig7Preprocessing(b *testing.B) {
	runExperiment(b, "fig7", []string{"uniprot", "shop"})
}

// BenchmarkFig8Q55 regenerates Fig. 8 (the DBpedia Q55 per-slice study).
func BenchmarkFig8Q55(b *testing.B) {
	runExperiment(b, "fig8", nil)
}

// BenchmarkFig9EQA regenerates Fig. 9 (EQA time and triples visited on
// YAGO and level-targeted Shop100 queries).
func BenchmarkFig9EQA(b *testing.B) {
	runExperiment(b, "fig9", nil)
}

// BenchmarkTable2SymbolLevels regenerates Table 2 (Q55 symbol levels).
func BenchmarkTable2SymbolLevels(b *testing.B) {
	runExperiment(b, "table2", nil)
}

// BenchmarkAblationAll regenerates the ablation report (sub-partition
// pruning, index pruning, slice ordering).
func BenchmarkAblationAll(b *testing.B) {
	runExperiment(b, "ablation", nil)
}

// BenchmarkExtensions regenerates the §6.2 future-work report
// (incremental maintenance, bloom pruning, recursive paths, TPF).
func BenchmarkExtensions(b *testing.B) {
	runExperiment(b, "extensions", nil)
}

// BenchmarkScaling regenerates the scale sweep (linear partitioning).
func BenchmarkScaling(b *testing.B) {
	runExperiment(b, "scaling", nil)
}

// --- focused ablation benchmarks (DESIGN.md §5) ---

func shopFixture(b *testing.B) (*gmark.Dataset, *hpart.Layout, *sparql.Query) {
	b.Helper()
	data := gmark.Shop().Generate(0.2, 7)
	lay, err := hpart.Partition(data.Graph, hpart.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE {
		?u <` + data.Schema.PropertyIRI("likes") + `> ?p .
		?u <` + data.Schema.PropertyIRI("follows") + `> ?v .
	}`)
	return data, lay, q
}

func benchPQA(b *testing.B, opts ping.Options) {
	_, lay, q := shopFixture(b)
	proc := ping.NewProcessor(lay, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.PQA(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBaseline is the reference point for the two ablations.
func BenchmarkAblationBaseline(b *testing.B) { benchPQA(b, ping.Options{}) }

// BenchmarkAblationNoSubPartitioning loads whole levels instead of
// per-property files (quantifies §3.6).
func BenchmarkAblationNoSubPartitioning(b *testing.B) {
	benchPQA(b, ping.Options{DisableSubPartPruning: true})
}

// BenchmarkAblationNoIndexPruning ignores SI/OI when slicing (quantifies
// §3.7).
func BenchmarkAblationNoIndexPruning(b *testing.B) {
	benchPQA(b, ping.Options{DisableIndexPruning: true})
}

// BenchmarkAblationProductSlices runs the literal Algorithm 2 product
// enumeration instead of level-cumulative slicing.
func BenchmarkAblationProductSlices(b *testing.B) {
	benchPQA(b, ping.Options{Strategy: ping.ProductOrder})
}

// BenchmarkPQAIncremental times the semi-naive PQA step loop on a deep
// hierarchy: each step folds only its newly loaded sub-partitions into
// the cached previous answers.
func BenchmarkPQAIncremental(b *testing.B) {
	// A deep nested-CS graph: subject s picks a depth d and gets
	// properties p0..p(d-1), so the hierarchy has `depth` levels and a
	// query over p0/p1 walks one PQA step per level. That is the regime
	// the semi-naive rewrite targets: each of the many steps joins only
	// its delta, not the whole accumulated slice.
	deepGraph := func(seed int64, subjects, depth int) *rdf.Graph {
		rng := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		props := make([]rdf.Term, depth)
		for i := range props {
			props[i] = rdf.NewIRI(fmt.Sprintf("http://bench.example.org/p%d", i))
		}
		for s := 0; s < subjects; s++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://bench.example.org/s%d", s))
			d := 1 + rng.Intn(depth)
			for j := 0; j < d; j++ {
				// Objects come from a smaller pool so the p0/p1 join has
				// real fan-out and the per-step answer relations grow.
				obj := rdf.NewIRI(fmt.Sprintf("http://bench.example.org/s%d", rng.Intn(subjects/3)))
				g.Add(subj, props[j], obj)
			}
		}
		g.Dedup()
		return g
	}
	fixture := func(b *testing.B) (*hpart.Layout, *sparql.Query) {
		b.Helper()
		lay, err := hpart.Partition(deepGraph(7, 6000, 16), hpart.Options{})
		if err != nil {
			b.Fatal(err)
		}
		q := sparql.MustParse(`SELECT * WHERE {
			?x <http://bench.example.org/p0> ?y .
			?y <http://bench.example.org/p1> ?z .
		}`)
		return lay, q
	}
	b.Run("incremental=on", func(b *testing.B) {
		lay, q := fixture(b)
		proc := ping.NewProcessor(lay, ping.Options{})
		// One warm-up run so the loop measures evaluation with a warm
		// sub-partition cache.
		if _, err := proc.PQA(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := proc.PQA(q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Final.Card() == 0 {
				b.Fatal("empty final answer")
			}
		}
	})
}

// --- micro benchmarks on the substrates ---

func BenchmarkPartitioner(b *testing.B) {
	data := gmark.Uniprot().Generate(0.2, 3)
	b.ReportMetric(float64(data.Graph.Len()), "triples")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hpart.Partition(data.Graph, hpart.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionerDistributed(b *testing.B) {
	data := gmark.Uniprot().Generate(0.2, 3)
	ctx := dataflow.NewContext(4)
	b.ReportMetric(float64(data.Graph.Len()), "triples")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hpart.PartitionDistributed(data.Graph, ctx, hpart.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalMaintenance(b *testing.B) {
	data := gmark.Uniprot().Generate(0.2, 3)
	lay, err := hpart.Partition(data.Graph, hpart.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := hpart.NewStoreMaintainer(hpart.NewStore(lay))
	if err != nil {
		b.Fatal(err)
	}
	occursIn := data.Graph.Dict.EncodeIRI(data.Schema.PropertyIRI("occursIn"))
	hasKeyword := data.Graph.Dict.EncodeIRI(data.Schema.PropertyIRI("hasKeyword"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := data.Graph.Dict.EncodeIRI(fmt.Sprintf("http://bench.example.org/s%d", i))
		o := data.Graph.Dict.EncodeIRI(fmt.Sprintf("http://bench.example.org/o%d", i%32))
		err := m.AddTriples([]rdf.Triple{
			{S: s, P: occursIn, O: o},
			{S: s, P: hasKeyword, O: o},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEQA(b *testing.B) {
	_, lay, q := shopFixture(b)
	proc := ping.NewProcessor(lay, ping.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := proc.EQA(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailover measures query latency under injected read-error
// rates at Replication 2, quantifying the cost of checksum verification,
// replica failover, and retries on the PQA hot path. Backoff sleeping is
// disabled so the numbers isolate the mechanical recovery overhead.
func BenchmarkFailover(b *testing.B) {
	for _, rate := range []float64{0, 0.01, 0.10} {
		b.Run(fmt.Sprintf("errRate=%g", rate), func(b *testing.B) {
			data := gmark.Shop().Generate(0.2, 7)
			fs := dfs.New(dfs.Config{
				BlockSize:   4096,
				DataNodes:   4,
				Replication: 2,
				MaxRetries:  3,
				RetryBase:   -1,
			})
			lay, err := hpart.Partition(data.Graph, hpart.Options{FS: fs})
			if err != nil {
				b.Fatal(err)
			}
			plan := faults.Plan{Seed: 42, Nodes: make(map[int]faults.NodePlan)}
			for n := 0; n < 4; n++ {
				plan.Nodes[n] = faults.NodePlan{ReadErrorRate: rate}
			}
			faults.New(plan).Attach(fs)
			q := sparql.MustParse(`SELECT * WHERE {
				?u <` + data.Schema.PropertyIRI("likes") + `> ?p .
				?u <` + data.Schema.PropertyIRI("follows") + `> ?v .
			}`)
			proc := ping.NewProcessor(lay, ping.Options{FailurePolicy: ping.Degrade})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := proc.PQA(q)
				if err != nil {
					b.Fatal(err)
				}
				if rate == 0 && !res.Exact {
					b.Fatal("fault-free run degraded")
				}
			}
		})
	}
}

func BenchmarkS2RDFQuery(b *testing.B) {
	data, _, q := shopFixture(b)
	st, err := s2rdf.Preprocess(data.Graph, s2rdf.Options{SelectivityThreshold: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWORQQuery(b *testing.B) {
	data, _, q := shopFixture(b)
	st, err := worq.Preprocess(data.Graph, worq.Options{Workload: []*sparql.Query{q}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColumnarEncodeDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	col := make([]uint32, 100_000)
	for i := range col {
		col[i] = uint32(rng.Intn(1 << 20))
	}
	b.SetBytes(int64(len(col) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if _, err := columnar.WriteColumns(&buf, [][]uint32{col}, columnar.Plain); err != nil {
			b.Fatal(err)
		}
		if _, err := columnar.DecodeColumns(buf.data); err != nil {
			b.Fatal(err)
		}
	}
}

type writeCounter struct{ data []byte }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func BenchmarkBloomAddContains(b *testing.B) {
	f := bloom.NewWithEstimates(1_000_000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
		if !f.Contains(uint64(i)) {
			b.Fatal("false negative")
		}
	}
}

func BenchmarkDataflowJoin(b *testing.B) {
	ctx := dataflow.NewContext(2)
	n := 50_000
	left := make([]dataflow.Pair[uint32, uint32], n)
	right := make([]dataflow.Pair[uint32, uint32], n)
	for i := 0; i < n; i++ {
		left[i] = dataflow.Pair[uint32, uint32]{Key: uint32(i % 1000), Value: uint32(i)}
		right[i] = dataflow.Pair[uint32, uint32]{Key: uint32(i % 2000), Value: uint32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := dataflow.Parallelize(ctx, left, 4)
		r := dataflow.Parallelize(ctx, right, 4)
		j := dataflow.JoinByKey(l, r, 4, func(k uint32) uint64 { return uint64(k) })
		if j.Count() == 0 {
			b.Fatal("empty join")
		}
	}
}

func BenchmarkNTriplesParse(b *testing.B) {
	data := gmark.Uniprot().Generate(0.1, 5)
	var buf writeCounter
	if _, err := rdf.WriteNTriples(&buf, data.Graph); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf.data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdf.ParseNTriples(readerOf(buf.data)); err != nil {
			b.Fatal(err)
		}
	}
}

type sliceReader struct {
	data []byte
	pos  int
}

func readerOf(data []byte) *sliceReader { return &sliceReader{data: data} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// benchPairs draws sub-partition-shaped pair sets: clustered subjects
// with a few objects each, pre-sorted the way partition files are.
func benchPairs(n int) []rdf.SOPair {
	rng := rand.New(rand.NewSource(77))
	pairs := make([]rdf.SOPair, n)
	s := uint32(0)
	for i := range pairs {
		if rng.Intn(3) == 0 {
			s += uint32(1 + rng.Intn(4))
		}
		pairs[i] = rdf.SOPair{S: rdf.ID(s), O: rdf.ID(rng.Intn(1 << 20))}
	}
	block := rdf.PackPairs(pairs) // sorts a copy
	return block.Materialize()
}

// BenchmarkPairBlockPack measures delta-varint packing of a sorted
// sub-partition into its resident representation.
func BenchmarkPairBlockPack(b *testing.B) {
	pairs := benchPairs(100_000)
	b.SetBytes(int64(len(pairs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := rdf.PackPairs(pairs)
		if block.Len() != len(pairs) {
			b.Fatal("pack lost rows")
		}
	}
}

// BenchmarkPairBlockDecode measures streaming a packed block back into
// (S,O) pairs — the per-query cost the compressed cache adds.
func BenchmarkPairBlockDecode(b *testing.B) {
	pairs := benchPairs(100_000)
	block := rdf.PackPairs(pairs)
	b.SetBytes(int64(len(pairs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		block.ForEach(func(rdf.SOPair) { n++ })
		if n != len(pairs) {
			b.Fatal("decode lost rows")
		}
	}
}

// BenchmarkDictLookup measures string→ID and ID→string through an
// immutable dictionary snapshot (the query-boundary hot paths).
func BenchmarkDictLookup(b *testing.B) {
	d := rdf.NewDict()
	terms := make([]rdf.Term, 10_000)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://example.org/resource/%d", i))
		d.Encode(terms[i])
	}
	dv := d.Snapshot()
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if dv.Lookup(terms[i%len(terms)]) == rdf.NoID {
				b.Fatal("miss")
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(dv.TermString(rdf.ID(i%len(terms)))) == 0 {
				b.Fatal("empty term")
			}
		}
	})
}

// BenchmarkDictResidentFootprint runs the shop fixture's query over
// compressed resident blocks, reporting the bytes each cached
// sub-partition occupies next to the wall time.
func BenchmarkDictResidentFootprint(b *testing.B) {
	b.Run("dict", func(b *testing.B) {
		_, lay, q := shopFixture(b)
		proc := ping.NewProcessor(lay, ping.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := proc.PQA(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if n, bytes, _ := lay.SubPartCacheStats(); n > 0 {
			b.ReportMetric(float64(bytes)/float64(n), "B/subpart")
		}
	})
}

// BenchmarkAdvisorAblation closes the workload loop on the shop dataset:
// profile the standard workload, apply the advisor's plan (cold-level
// merges + join reductions) to a copy-on-write store, and replay the hot
// fingerprints on both layouts. Reports the count-weighted p95
// steps-to-first-answer before and after — the bench JSON's `advisor`
// rows come from the same code path (harness.AdvisorAblation).
func BenchmarkAdvisorAblation(b *testing.B) {
	s := benchSuite()
	ds, err := s.Dataset("shop")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rows []harness.BenchAdvisorRow
	for i := 0; i < b.N; i++ {
		rows, err = s.AdvisorAblation(ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, row := range rows {
		switch row.Config {
		case "unadvised":
			b.ReportMetric(row.P95StepsToFirst, "p95-steps-before")
		case "advised":
			b.ReportMetric(row.P95StepsToFirst, "p95-steps-after")
		}
	}
}

// BenchmarkEngineJoin evaluates a two-pattern join through the engine's
// packed uint64 join-key path on a skewed graph.
func BenchmarkEngineJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	g := rdf.NewGraph()
	for i := 0; i < 30_000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("s%d", rng.Intn(3000)))
		g.Add(s, rdf.NewIRI("p0"), rdf.NewIRI(fmt.Sprintf("o%d", rng.Intn(500))))
		g.Add(s, rdf.NewIRI("p1"), rdf.NewIRI(fmt.Sprintf("o%d", rng.Intn(500))))
	}
	g.Dedup()
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)
	inputs := engine.InputsFromGraph(g, q)
	ctx := dataflow.NewContext(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, _, err := engine.Evaluate(q, inputs, g.Dict, engine.Options{Context: ctx})
		if err != nil {
			b.Fatal(err)
		}
		if rel.Card() == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkRelationDistinct measures the hashed distinct-key pass on a
// wide relation with heavy duplication.
func BenchmarkRelationDistinct(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	rel := &engine.Relation{Vars: []string{"x", "y", "z"}}
	for i := 0; i < 100_000; i++ {
		rel.Rows = append(rel.Rows, []rdf.ID{
			rdf.ID(rng.Intn(300)), rdf.ID(rng.Intn(300)), rdf.ID(rng.Intn(30)),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rel.Distinct().Card() == 0 {
			b.Fatal("empty distinct")
		}
	}
}
