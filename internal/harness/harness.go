// Package harness implements the paper's evaluation (§5): it generates
// the benchmark datasets, builds PING's partitioning and the S2RDF/WORQ
// baselines, runs the workloads, and renders every table and figure of
// the paper as text reports. cmd/pingbench exposes the experiments on the
// command line.
package harness

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ping/internal/baseline/s2rdf"
	"ping/internal/baseline/worq"
	"ping/internal/columnar"
	"ping/internal/dataflow"
	"ping/internal/engine"
	"ping/internal/gmark"
	"ping/internal/hpart"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// Suite carries the configuration and dataset cache shared by all
// experiments.
type Suite struct {
	// Workers is the dataflow executor pool size (the simulated cluster
	// core count).
	Workers int
	// PerBucket is the number of queries per star/chain/complex bucket
	// (the paper uses 20).
	PerBucket int
	// Scale multiplies every dataset's standard scale; < 1 gives quick
	// runs for unit benchmarks.
	Scale float64
	// Seed makes runs reproducible.
	Seed int64

	mu    sync.Mutex
	cache map[string]*BuiltDataset
	ctx   *dataflow.Context
}

// NewSuite returns a suite with the given knobs (zero values get
// defaults: 4 workers, 5 queries per bucket, scale 1, seed 42).
func NewSuite(workers, perBucket int, scale float64, seed int64) *Suite {
	if workers <= 0 {
		workers = 4
	}
	if perBucket <= 0 {
		perBucket = 5
	}
	if scale <= 0 {
		scale = 1
	}
	if seed == 0 {
		seed = 42
	}
	return &Suite{
		Workers:   workers,
		PerBucket: perBucket,
		Scale:     scale,
		Seed:      seed,
		cache:     make(map[string]*BuiltDataset),
		ctx:       dataflow.NewContext(workers),
	}
}

// BuiltDataset is a generated dataset with its PING layout and the
// raw-size baseline used by the reduction-factor metric.
type BuiltDataset struct {
	Spec   gmark.NamedDataset
	Data   *gmark.Dataset
	Layout *hpart.Layout
	// RawBytes is the size of the initial dataset as loaded into the DFS:
	// the dictionary-encoded triple table (three plain varint columns).
	// Both PING and the baselines store dictionary-encoded tables, so
	// this shared basis makes the Fig. 7 reduction factors comparable.
	RawBytes int64
	// NTriplesBytes is the textual N-Triples size (Table 1's "Size").
	NTriplesBytes int64
	// SOLexBytes is the lexical size of all (subject, object) pairs — the
	// dataset stored in text-typed columnar tables with the predicate
	// dropped, i.e. PING's storage policy (§3.8). Used by the Fig. 7
	// reduction factors.
	SOLexBytes int64
	// DictLexBytes is the lexical size of the term dictionary — what a
	// dictionary-compressing system (WORQ) must store besides its integer
	// tables.
	DictLexBytes int64
}

// Dataset returns (building and caching on first use) a benchmark dataset
// by its Table 1 name.
func (s *Suite) Dataset(name string) (*BuiltDataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.cache[name]; ok {
		return b, nil
	}
	spec := gmark.DatasetByName(name)
	if spec == nil {
		return nil, fmt.Errorf("harness: unknown dataset %q", name)
	}
	data := spec.Schema.Generate(spec.Scale*s.Scale, s.Seed)
	lay, err := hpart.Partition(data.Graph, hpart.Options{})
	if err != nil {
		return nil, err
	}
	b := &BuiltDataset{
		Spec:          *spec,
		Data:          data,
		Layout:        lay,
		RawBytes:      rawColumnarSize(data.Graph),
		NTriplesBytes: rdf.NTriplesSize(data.Graph),
	}
	for _, t := range data.Graph.Triples {
		b.SOLexBytes += int64(len(data.Graph.Dict.TermString(t.S)) +
			len(data.Graph.Dict.TermString(t.O)) + 2)
	}
	for id := 0; id < data.Graph.Dict.Len(); id++ {
		b.DictLexBytes += int64(len(data.Graph.Dict.TermString(rdf.ID(id))) + 1)
	}
	s.cache[name] = b
	return b, nil
}

// rawColumnarSize measures the initial dataset stored as three plain
// varint columns — the denominator of the reduction factor.
func rawColumnarSize(g *rdf.Graph) int64 {
	cols := make([][]uint32, 3)
	for _, t := range g.Triples {
		cols[0] = append(cols[0], t.S)
		cols[1] = append(cols[1], t.P)
		cols[2] = append(cols[2], t.O)
	}
	return columnar.EncodedSize(cols, columnar.Plain)
}

// Processor returns a PING query processor over a built dataset.
func (s *Suite) Processor(b *BuiltDataset, opts ping.Options) *ping.Processor {
	if opts.Context == nil {
		opts.Context = s.ctx
	}
	return ping.NewProcessor(b.Layout, opts)
}

// Workload returns the Table 1 query workload for a dataset.
func (s *Suite) Workload(b *BuiltDataset) gmark.Workload {
	cfg := gmark.StandardWorkloadConfig(b.Spec.Name, s.PerBucket)
	return b.Data.GenerateWorkload(cfg, s.Seed+1)
}

// ExactSystem is the common face of PING-EQA and the two baselines in the
// Fig. 7/9 comparisons.
type ExactSystem interface {
	Name() string
	Query(q *sparql.Query) (*engine.Relation, *engine.Stats, error)
	PreprocessTime() time.Duration
	StoredBytes() int64
}

// pingSystem adapts the PING processor to ExactSystem.
type pingSystem struct {
	proc *ping.Processor
	b    *BuiltDataset
}

func (p pingSystem) Name() string { return "PING" }
func (p pingSystem) Query(q *sparql.Query) (*engine.Relation, *engine.Stats, error) {
	return p.proc.EQA(q)
}
func (p pingSystem) PreprocessTime() time.Duration { return p.b.Layout.PreprocessTime }
func (p pingSystem) StoredBytes() int64            { return p.b.Layout.StoredBytes }

// Systems builds the three exact-query-answering systems over one
// dataset: PING, S2RDF, and WORQ. The WORQ reduction cache is seeded with
// the given workload (its published usage mode).
func (s *Suite) Systems(b *BuiltDataset, workload []*sparql.Query) (pingSys, s2rdfSys, worqSys ExactSystem, err error) {
	pingSys = pingSystem{proc: s.Processor(b, ping.Options{}), b: b}
	// 0.25 is S2RDF's published default selectivity threshold (ScaleUB):
	// ExtVP tables larger than a quarter of their base VP table are not
	// stored and the query falls back to the plain vertical partition.
	st2, err := s2rdf.Preprocess(b.Data.Graph, s2rdf.Options{SelectivityThreshold: 0.25})
	if err != nil {
		return nil, nil, nil, err
	}
	// §5.3: "we disabled caching of precomputed joins" — WORQ recomputes
	// its Bloom reductions per query, so its data access equals the full
	// vertical partitions.
	stw, err := worq.Preprocess(b.Data.Graph, worq.Options{
		Workload:              workload,
		DisableReductionCache: true,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return pingSys, st2, stw, nil
}

// fmtDuration renders a duration with millisecond precision.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// fmtBytes renders a byte count in KiB/MiB.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// sortedKeys returns the map keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
