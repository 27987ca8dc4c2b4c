// Quickstart: build a tiny knowledge graph, partition it with PING's CS
// hierarchy, and answer a query progressively — the minimal end-to-end
// tour of the public API.
package main

import (
	"context"
	"fmt"

	"ping/internal/hpart"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

func main() {
	// 1. Build a graph (normally you would rdf.ParseNTriples a file).
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	g.Add(iri("alice"), iri("knows"), iri("bob"))
	g.Add(iri("alice"), iri("likes"), iri("pizza"))
	g.Add(iri("bob"), iri("knows"), iri("carol"))
	g.Add(iri("bob"), iri("likes"), iri("sushi"))
	g.Add(iri("bob"), iri("worksAt"), iri("acme"))
	g.Add(iri("carol"), iri("knows"), iri("alice"))
	g.Add(iri("carol"), iri("likes"), iri("ramen"))
	g.Add(iri("carol"), iri("worksAt"), iri("acme"))
	g.Add(iri("carol"), iri("manages"), iri("bob"))
	g.Dedup()

	// 2. Partition: Algorithm 1 mines the CS hierarchy and splits the
	// graph into levels with vertical sub-partitions and VP/SI/OI indexes.
	layout, err := hpart.Partition(g, hpart.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("CS hierarchy: %d levels, triples per level = %v\n\n",
		layout.NumLevels, layout.LevelTriples)

	// 3. Query progressively: answers stream level by level, every
	// partial answer already exact (a subset of the final result).
	q := sparql.MustParse(`SELECT * WHERE { ?p <knows> ?q . ?p <likes> ?food }`)
	proc := ping.NewProcessor(layout, ping.Options{})
	err = proc.PQAStepsCtx(context.Background(), q, func(step ping.StepResult) bool {
		fmt.Printf("slice %d (levels ≤%d): %d answers after %v\n",
			step.Step, step.MaxLevel, step.Answers.Card(), step.ElapsedCum)
		for _, binding := range step.Answers.BindingMaps() {
			fmt.Printf("   ?p=%s ?q=%s ?food=%s\n",
				g.Dict.TermString(binding["p"]),
				g.Dict.TermString(binding["q"]),
				g.Dict.TermString(binding["food"]))
		}
		return true // keep refining; return false to stop early
	})
	if err != nil {
		panic(err)
	}

	// 4. Or get the exact answer in one shot (EQA).
	rel, stats, err := proc.EQA(q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nEQA: %d answers, %d rows loaded, %d joins\n",
		rel.Card(), stats.InputRows, stats.Joins)
}
