package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/gmark"
	"ping/internal/hpart"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// query is one member of a workload's mix with the cardinalities its
// final answer must have.
type query struct {
	text string
	// lo and hi bound the exact answer count: equal, except on a store
	// that takes updates while it is read, where the answer may be that
	// of any epoch between the initial store and the store after every
	// held-out batch (basic graph patterns are monotone in the data).
	lo, hi int
	// budgeted queries are asked with max_steps=2 and resumed until done,
	// on workloads that budget at all.
	budgeted bool
}

// dataset is the generated input of one workload run.
type dataset struct {
	schema gmark.Schema
	// base is what gets partitioned; heldOut is posted to /update in
	// batches. Both share one dictionary.
	base    *rdf.Graph
	heldOut []rdf.Triple
	genTime time.Duration
}

// generate builds the seed's graph and holds out the triples of a
// seeded tenth of the subjects.
func generate(sp spec, scale float64, seed int64) (*dataset, error) {
	nd := gmark.DatasetByName(sp.dataset)
	if nd == nil {
		return nil, fmt.Errorf("unknown gmark dataset %q", sp.dataset)
	}
	start := time.Now()
	d := nd.Schema.Generate(sp.scale*scale, seed)
	full := d.Graph
	// Triples are in SPO order after Generate, so one pass decides per
	// subject and keeps each subject's triples together in heldOut.
	rng := rand.New(rand.NewSource(seed))
	base := &rdf.Graph{Dict: full.Dict, Triples: make([]rdf.Triple, 0, len(full.Triples))}
	var heldOut []rdf.Triple
	hold := false
	for i, t := range full.Triples {
		if i == 0 || t.S != full.Triples[i-1].S {
			hold = rng.Float64() < heldOutShare
		}
		if hold {
			heldOut = append(heldOut, t)
		} else {
			base.Triples = append(base.Triples, t)
		}
	}
	return &dataset{schema: nd.Schema, base: base, heldOut: heldOut, genTime: time.Since(start)}, nil
}

// updateBatches deals the held-out subjects round-robin into batches of
// about updateBatchTriples statements each. Dealing, instead of cutting
// the sorted list, gives every batch the same mix of classes and
// hierarchy levels: what an update costs depends on which level files it
// rewrites, and batches of one kind each made update latency bimodal
// with a mixture that changed from seed to seed.
func (d *dataset) updateBatches() [][]rdf.Triple {
	n := (len(d.heldOut) + updateBatchTriples - 1) / updateBatchTriples
	out := make([][]rdf.Triple, n)
	subject := -1
	for i, t := range d.heldOut {
		if i == 0 || t.S != d.heldOut[i-1].S {
			subject++
		}
		out[subject%n] = append(out[subject%n], t)
	}
	return out
}

// ntriples serializes one batch as the body of an /update request.
func (d *dataset) ntriples(batch []rdf.Triple) []byte {
	var buf bytes.Buffer
	_, _ = rdf.WriteNTriples(&buf, &rdf.Graph{Dict: d.base.Dict, Triples: batch}) // a bytes.Buffer cannot fail
	return buf.Bytes()
}

// partition runs Algorithm 1 into an on-disk store that pingd can open.
func partition(g *rdf.Graph, dir string) (*hpart.Layout, error) {
	fs, err := dfs.NewOnDisk(dir, dfs.Config{DataNodes: 4, Replication: 1})
	if err != nil {
		return nil, err
	}
	lay, err := hpart.Partition(g, hpart.Options{FS: fs})
	if err != nil {
		return nil, err
	}
	if err := lay.SaveDict(); err != nil {
		return nil, err
	}
	if err := fs.SaveManifest(); err != nil {
		return nil, err
	}
	return lay, nil
}

// newProcessor is the in-process counterpart of the processor a shipped
// pingd builds per request: four dataflow workers, level strategy.
func newProcessor(lay *hpart.Layout) *ping.Processor {
	return ping.NewProcessor(lay, ping.Options{Context: dataflow.NewContext(4)})
}

// oracle computes each template's exact cardinality with in-process EQA
// on the partitioned store, drops templates without answers (time to
// first answer is undefined for them) and, when the store will take
// updates, widens hi to the cardinality over base plus held-out data.
// It also counts the distinct sub-partitions the surviving mix touches.
func oracle(d *dataset, lay *hpart.Layout, texts []string, budgeted map[string]bool, withUpdates bool) (mix []query, touched int, err error) {
	proc := newProcessor(lay)
	var after *ping.Processor
	if withUpdates {
		full := &rdf.Graph{Dict: d.base.Dict, Triples: append(append([]rdf.Triple(nil), d.base.Triples...), d.heldOut...)}
		full.Sort()
		layAfter, err := hpart.Partition(full, hpart.Options{})
		if err != nil {
			return nil, 0, err
		}
		after = newProcessor(layAfter)
	}
	keys := make(map[hpart.SubPartKey]bool)
	for _, text := range texts {
		q, err := sparql.Parse(text)
		if err != nil {
			return nil, 0, fmt.Errorf("template %q: %w", text, err)
		}
		rel, _, err := proc.EQA(q)
		if err != nil {
			return nil, 0, fmt.Errorf("oracle EQA %q: %w", text, err)
		}
		if rel.Card() == 0 {
			continue
		}
		qu := query{text: text, lo: rel.Card(), hi: rel.Card(), budgeted: budgeted[text]}
		if after != nil {
			rel, _, err := after.EQA(q)
			if err != nil {
				return nil, 0, fmt.Errorf("oracle EQA after updates %q: %w", text, err)
			}
			qu.hi = rel.Card()
		}
		for _, pat := range proc.QuerySlices(q) {
			for _, k := range pat {
				keys[k] = true
			}
		}
		mix = append(mix, qu)
	}
	if len(mix) == 0 {
		return nil, 0, fmt.Errorf("no template of the family has answers")
	}
	return mix, len(keys), nil
}
