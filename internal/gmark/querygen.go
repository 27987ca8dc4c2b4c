package gmark

import (
	"fmt"
	"math/rand"
	"strings"

	"ping/internal/engine"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// WorkloadConfig controls query generation for one dataset, mirroring the
// per-dataset workload characteristics of Table 1 (20 star / 20 chain /
// 20 complex queries with dataset-specific pattern-count ranges; the
// paper generated 2000 candidates per class and kept the first 20 that
// returned answers — RequireNonEmpty reproduces that filter).
type WorkloadConfig struct {
	Star, Chain, Complex   int
	StarMin, StarMax       int
	ChainMin, ChainMax     int
	ComplexMin, ComplexMax int
	// ConstantProb is the probability that a star pattern's object is a
	// constant drawn from the data.
	ConstantProb float64
	// RequireNonEmpty keeps only queries with at least one answer.
	RequireNonEmpty bool
	// MaxAttempts caps candidate generation per bucket (default 100 per
	// requested query).
	MaxAttempts int
}

// Workload is a generated query mix.
type Workload struct {
	Star, Chain, Complex []*sparql.Query
}

// All returns every query with its shape label, star first.
func (w Workload) All() []LabeledQuery {
	var out []LabeledQuery
	for _, q := range w.Star {
		out = append(out, LabeledQuery{Shape: "star", Query: q})
	}
	for _, q := range w.Chain {
		out = append(out, LabeledQuery{Shape: "chain", Query: q})
	}
	for _, q := range w.Complex {
		out = append(out, LabeledQuery{Shape: "complex", Query: q})
	}
	return out
}

// LabeledQuery pairs a query with its workload bucket.
type LabeledQuery struct {
	Shape string
	Query *sparql.Query
}

// StandardWorkloadConfig returns the Table 1 workload shape for a dataset
// name, with the query counts scaled down by the harness (the paper uses
// 20 per bucket; benchmarks usually run fewer).
func StandardWorkloadConfig(dataset string, perBucket int) WorkloadConfig {
	cfg := WorkloadConfig{
		Star: perBucket, Chain: perBucket, Complex: perBucket,
		StarMin: 2, StarMax: 5, ChainMin: 2, ChainMax: 5,
		ComplexMin: 3, ComplexMax: 5,
		ConstantProb:    0.2,
		RequireNonEmpty: true,
	}
	switch dataset {
	case "uniprot":
		cfg.ComplexMin, cfg.ComplexMax = 2, 5
	case "shop", "shop100":
		// defaults: 2-5 / 2-5 / 3-5
	case "social":
		cfg.StarMin, cfg.StarMax = 3, 5
		cfg.ChainMin, cfg.ChainMax = 3, 4
		cfg.ComplexMin, cfg.ComplexMax = 2, 5
	case "lubm":
		cfg.ChainMin, cfg.ChainMax = 1, 2
		cfg.ComplexMin, cfg.ComplexMax = 4, 6
	case "yago":
		cfg.StarMin, cfg.StarMax = 3, 6
		cfg.Chain = 0 // Table 1: YAGO has no plain chain queries
		cfg.ComplexMin, cfg.ComplexMax = 4, 10
		// The YAGO benchmark queries (taken from the WORQ paper's logs)
		// are constant-rich, which is what lets PING's indexes prune.
		cfg.ConstantProb = 0.8
	case "dbpedia":
		cfg.StarMin, cfg.StarMax = 1, 5
		cfg.ChainMin, cfg.ChainMax = 1, 4
		cfg.ComplexMin, cfg.ComplexMax = 4, 5
	}
	return cfg
}

// queryGen holds the sampling state shared by the generators.
type queryGen struct {
	d   *Dataset
	rng *rand.Rand
	// objectSamples maps property IRI to sample objects drawn from the
	// generated graph, used for constant-object patterns.
	objectSamples map[string][]rdf.Term
	// classProps maps class name to its full property list.
	classProps map[string][]Property
	// classTargets maps class name to its class-targeting properties.
	classTargets map[string][]Property
}

func newQueryGen(d *Dataset, seed int64) *queryGen {
	g := &queryGen{
		d:             d,
		rng:           rand.New(rand.NewSource(seed)),
		objectSamples: make(map[string][]rdf.Term),
		classProps:    make(map[string][]Property),
		classTargets:  make(map[string][]Property),
	}
	for _, c := range d.Schema.Classes {
		props := append(append([]Property(nil), c.Required...), c.Chain...)
		g.classProps[c.Name] = props
		for _, p := range props {
			if p.Target.Class != "" {
				g.classTargets[c.Name] = append(g.classTargets[c.Name], p)
			}
		}
	}
	// Sample up to 40 objects per property for constant generation.
	const maxSamples = 40
	for _, t := range d.Graph.Triples {
		piri := d.Graph.Dict.Term(t.P).Value
		if len(g.objectSamples[piri]) < maxSamples {
			g.objectSamples[piri] = append(g.objectSamples[piri], d.Graph.Dict.Term(t.O))
		}
	}
	return g
}

// GenerateWorkload builds the star/chain/complex buckets for the dataset.
func (d *Dataset) GenerateWorkload(cfg WorkloadConfig, seed int64) Workload {
	g := newQueryGen(d, seed)
	maxAttempts := cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 100
	}
	fill := func(n int, gen func() *sparql.Query) []*sparql.Query {
		var out []*sparql.Query
		for attempts := 0; len(out) < n && attempts < n*maxAttempts; attempts++ {
			q := gen()
			if q == nil {
				continue
			}
			if cfg.RequireNonEmpty && !g.hasAnswers(q) {
				continue
			}
			out = append(out, q)
		}
		return out
	}
	return Workload{
		Star: fill(cfg.Star, func() *sparql.Query {
			return g.star(randBetween(g.rng, cfg.StarMin, cfg.StarMax), cfg.ConstantProb)
		}),
		Chain: fill(cfg.Chain, func() *sparql.Query {
			return g.chain(randBetween(g.rng, cfg.ChainMin, cfg.ChainMax))
		}),
		Complex: fill(cfg.Complex, func() *sparql.Query {
			return g.complex(randBetween(g.rng, cfg.ComplexMin, cfg.ComplexMax))
		}),
	}
}

func randBetween(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// hasAnswers evaluates the query on the full graph.
func (g *queryGen) hasAnswers(q *sparql.Query) bool {
	rel, _, err := engine.Evaluate(q, engine.InputsFromGraph(g.d.Graph, q), g.d.Graph.Dict, engine.Options{})
	return err == nil && rel.Card() > 0
}

// star builds a star query of k patterns over one class.
func (g *queryGen) star(k int, constantProb float64) *sparql.Query {
	classes := g.classesWithProps(k)
	if len(classes) == 0 {
		return nil
	}
	c := classes[g.rng.Intn(len(classes))]
	props := g.pickProps(g.classProps[c], k)
	var b strings.Builder
	b.WriteString("SELECT * WHERE {\n")
	for i, p := range props {
		piri := g.d.Schema.PropertyIRI(p.Name)
		obj := fmt.Sprintf("?o%d", i)
		if g.rng.Float64() < constantProb {
			if samples := g.objectSamples[piri]; len(samples) > 0 {
				obj = samples[g.rng.Intn(len(samples))].String()
			}
		}
		fmt.Fprintf(&b, "  ?x <%s> %s .\n", piri, obj)
	}
	b.WriteString("}")
	return sparql.MustParse(b.String())
}

// chain builds a chain query of k patterns by walking class-targeting
// properties.
func (g *queryGen) chain(k int) *sparql.Query {
	if k < 1 {
		return nil
	}
	// Pick a start class that can sustain a walk. Classes are listed in
	// schema order, never map order, so a seed fixes the workload.
	var starts []string
	for _, c := range g.d.Schema.Classes {
		if len(g.classTargets[c.Name]) > 0 {
			starts = append(starts, c.Name)
		}
	}
	if len(starts) == 0 {
		return nil
	}
	cur := starts[g.rng.Intn(len(starts))]
	var b strings.Builder
	b.WriteString("SELECT * WHERE {\n")
	for i := 0; i < k; i++ {
		var p Property
		if i == k-1 {
			// The last hop may use any property (the chain ends there).
			all := g.classProps[cur]
			if len(all) == 0 {
				return nil
			}
			p = all[g.rng.Intn(len(all))]
		} else {
			targets := g.classTargets[cur]
			if len(targets) == 0 {
				return nil // dead end; caller retries
			}
			p = targets[g.rng.Intn(len(targets))]
		}
		fmt.Fprintf(&b, "  ?v%d <%s> ?v%d .\n", i, g.d.Schema.PropertyIRI(p.Name), i+1)
		cur = p.Target.Class
	}
	b.WriteString("}")
	return sparql.MustParse(b.String())
}

// complex builds a star of at least two patterns with a chain hanging off
// one of its object variables.
func (g *queryGen) complex(k int) *sparql.Query {
	if k < 2 {
		k = 2
	}
	starK := 2
	if k > 3 {
		starK = 2 + g.rng.Intn(k-2) // 2..k-1
	}
	chainK := k - starK
	// The star class must have a class-targeting property for the bridge.
	var candidates []string
	for _, c := range g.d.Schema.Classes {
		if len(g.classTargets[c.Name]) > 0 && len(g.classProps[c.Name]) >= starK {
			candidates = append(candidates, c.Name)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	c := candidates[g.rng.Intn(len(candidates))]
	bridge := g.classTargets[c][g.rng.Intn(len(g.classTargets[c]))]

	var b strings.Builder
	b.WriteString("SELECT * WHERE {\n")
	fmt.Fprintf(&b, "  ?x <%s> ?v0 .\n", g.d.Schema.PropertyIRI(bridge.Name))
	others := g.pickProps(g.classProps[c], starK-1)
	for i, p := range others {
		fmt.Fprintf(&b, "  ?x <%s> ?s%d .\n", g.d.Schema.PropertyIRI(p.Name), i)
	}
	cur := bridge.Target.Class
	for i := 0; i < chainK; i++ {
		var p Property
		targets := g.classTargets[cur]
		if i == chainK-1 || len(targets) == 0 {
			all := g.classProps[cur]
			if len(all) == 0 {
				return nil
			}
			p = all[g.rng.Intn(len(all))]
		} else {
			p = targets[g.rng.Intn(len(targets))]
		}
		fmt.Fprintf(&b, "  ?v%d <%s> ?v%d .\n", i, g.d.Schema.PropertyIRI(p.Name), i+1)
		cur = p.Target.Class
	}
	b.WriteString("}")
	return sparql.MustParse(b.String())
}

// classesWithProps lists classes having at least k properties, in
// schema order.
func (g *queryGen) classesWithProps(k int) []string {
	var out []string
	for _, c := range g.d.Schema.Classes {
		if len(g.classProps[c.Name]) >= k {
			out = append(out, c.Name)
		}
	}
	return out
}

// pickProps samples k distinct properties.
func (g *queryGen) pickProps(props []Property, k int) []Property {
	idx := g.rng.Perm(len(props))
	if k > len(props) {
		k = len(props)
	}
	out := make([]Property, k)
	for i := 0; i < k; i++ {
		out[i] = props[idx[i]]
	}
	return out
}

// LevelTargetedQueries builds star queries on the class whose chain
// defines the dataset's hierarchy, such that every pattern's property
// occurs on exactly the deepest `levels` hierarchy levels of the class.
// These reproduce the Shop-100 EQA experiment of Fig. 9: the smaller
// `levels`, the larger PING's data-access advantage over the vertical-
// partitioning baselines (which always scan whole properties).
func (d *Dataset) LevelTargetedQueries(className string, levels, count, patterns int, seed int64) []*sparql.Query {
	c := d.Schema.ClassByName(className)
	if c == nil {
		return nil
	}
	m := len(c.Chain)
	if levels < 1 || levels > m+1 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []*sparql.Query
	for n := 0; n < count; n++ {
		var b strings.Builder
		b.WriteString("SELECT * WHERE {\n")
		// Deepest pattern: chain index m-levels occupies levels
		// (m-levels)+2 .. m+1, i.e. exactly `levels` levels. levels ==
		// m+1 selects a required property (all levels).
		if levels == m+1 {
			p := c.Required[rng.Intn(len(c.Required))]
			fmt.Fprintf(&b, "  ?x <%s> ?o0 .\n", d.Schema.PropertyIRI(p.Name))
		} else {
			p := c.Chain[m-levels]
			fmt.Fprintf(&b, "  ?x <%s> ?o0 .\n", d.Schema.PropertyIRI(p.Name))
		}
		// Additional patterns from deeper-or-equal chain positions keep
		// the touched level set unchanged.
		for i := 1; i < patterns; i++ {
			lo := m - levels + 1
			if lo < 0 {
				lo = 0
			}
			if lo >= m {
				break
			}
			p := c.Chain[lo+rng.Intn(m-lo)]
			fmt.Fprintf(&b, "  ?x <%s> ?o%d .\n", d.Schema.PropertyIRI(p.Name), i)
		}
		b.WriteString("}")
		out = append(out, sparql.MustParse(b.String()))
	}
	return out
}
