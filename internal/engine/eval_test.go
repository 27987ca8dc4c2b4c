package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"ping/internal/rdf"
	"ping/internal/sparql"
)

// testGraph builds a small social-style graph with known answers.
func testGraph() *rdf.Graph {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	knows, likes, name := iri("http://x/knows"), iri("http://x/likes"), iri("http://x/name")
	alice, bob, carol, dave := iri("http://x/alice"), iri("http://x/bob"), iri("http://x/carol"), iri("http://x/dave")
	g.Add(alice, knows, bob)
	g.Add(alice, knows, carol)
	g.Add(bob, knows, carol)
	g.Add(carol, knows, dave)
	g.Add(alice, likes, carol)
	g.Add(bob, likes, dave)
	g.Add(alice, name, rdf.NewLiteral("Alice"))
	g.Add(bob, name, rdf.NewLiteral("Bob"))
	g.Add(carol, name, rdf.NewLiteral("Carol"))
	return g
}

func evalOnGraph(t *testing.T, g *rdf.Graph, q *sparql.Query) (*Relation, *Stats) {
	t.Helper()
	rel, stats, err := Evaluate(q, InputsFromGraph(g, q), g.Dict, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rel, stats
}

func sameRelation(a, b *Relation) bool {
	if a.Card() != b.Card() {
		return false
	}
	as, bs := a.Sorted(), b.Sorted()
	for i := range as {
		if len(as[i]) != len(bs[i]) {
			return false
		}
		for j := range as[i] {
			if as[i][j] != bs[i][j] {
				return false
			}
		}
	}
	return true
}

func TestEvaluateStarQuery(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://x/knows> ?q . ?p <http://x/likes> ?r }`)
	rel, stats := evalOnGraph(t, g, q)
	// alice knows {bob,carol} × likes {carol} = 2; bob knows {carol} × likes {dave} = 1.
	if rel.Card() != 3 {
		t.Errorf("Card = %d, want 3", rel.Card())
	}
	if stats.Joins != 1 || stats.InputRows != 6 {
		t.Errorf("stats = %+v", stats)
	}
	if !sameRelation(rel, Naive(g, q)) {
		t.Error("Evaluate disagrees with Naive")
	}
}

func TestEvaluateChainQuery(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT * WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c }`)
	rel, _ := evalOnGraph(t, g, q)
	// alice→bob→carol, alice→carol→dave, bob→carol→dave.
	if rel.Card() != 3 {
		t.Errorf("Card = %d, want 3", rel.Card())
	}
	if !sameRelation(rel, Naive(g, q)) {
		t.Error("Evaluate disagrees with Naive")
	}
}

func TestEvaluateConstantObject(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT ?p WHERE { ?p <http://x/knows> <http://x/carol> }`)
	rel, _ := evalOnGraph(t, g, q)
	if rel.Card() != 2 { // alice, bob
		t.Errorf("Card = %d, want 2", rel.Card())
	}
}

func TestEvaluateConstantSubject(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT ?o WHERE { <http://x/alice> <http://x/knows> ?o }`)
	rel, _ := evalOnGraph(t, g, q)
	if rel.Card() != 2 {
		t.Errorf("Card = %d, want 2", rel.Card())
	}
}

func TestEvaluateVariablePredicate(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT * WHERE { <http://x/alice> ?p ?o }`)
	rel, _ := evalOnGraph(t, g, q)
	if rel.Card() != 4 { // knows×2, likes×1, name×1
		t.Errorf("Card = %d, want 4", rel.Card())
	}
	if !sameRelation(rel, Naive(g, q)) {
		t.Error("Evaluate disagrees with Naive on variable predicate")
	}
}

func TestEvaluateRepeatedVariable(t *testing.T) {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	g.Add(iri("a"), iri("p"), iri("a")) // self loop
	g.Add(iri("a"), iri("p"), iri("b"))
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p> ?x }`)
	rel, _ := evalOnGraph(t, g, q)
	if rel.Card() != 1 {
		t.Errorf("Card = %d, want 1 (self loop only)", rel.Card())
	}
	if !sameRelation(rel, Naive(g, q)) {
		t.Error("Evaluate disagrees with Naive on repeated variable")
	}
}

func TestEvaluateDisconnectedPatterns(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT * WHERE { ?a <http://x/likes> ?b . ?c <http://x/name> ?n }`)
	rel, _ := evalOnGraph(t, g, q)
	if rel.Card() != 6 { // 2 likes × 3 names cross product
		t.Errorf("Card = %d, want 6", rel.Card())
	}
	if !sameRelation(rel, Naive(g, q)) {
		t.Error("Evaluate disagrees with Naive on cross product")
	}
}

func TestEvaluateDistinctAndLimit(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT DISTINCT ?p WHERE { ?p <http://x/knows> ?q }`)
	rel, _ := evalOnGraph(t, g, q)
	if rel.Card() != 3 { // alice, bob, carol
		t.Errorf("DISTINCT Card = %d, want 3", rel.Card())
	}
	q2 := sparql.MustParse(`SELECT ?p WHERE { ?p <http://x/knows> ?q } LIMIT 2`)
	rel2, _ := evalOnGraph(t, g, q2)
	if rel2.Card() != 2 {
		t.Errorf("LIMIT Card = %d, want 2", rel2.Card())
	}
}

func TestEvaluateUnknownConstant(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://x/knows> <http://x/nobody> }`)
	rel, _ := evalOnGraph(t, g, q)
	if rel.Card() != 0 {
		t.Errorf("Card = %d, want 0", rel.Card())
	}
	q2 := sparql.MustParse(`SELECT * WHERE { ?p <http://x/unknownProp> ?q }`)
	rel2, _ := evalOnGraph(t, g, q2)
	if rel2.Card() != 0 {
		t.Errorf("unknown property Card = %d, want 0", rel2.Card())
	}
}

func TestEvaluateInputMismatch(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://x/knows> ?q }`)
	if _, _, err := Evaluate(q, nil, g.Dict, Options{}); err == nil {
		t.Error("mismatched inputs accepted")
	}
}

// randomQueryGraph generates a graph and query for the randomized
// equivalence test: Evaluate must agree with the backtracking oracle on
// arbitrary star/chain/complex BGPs.
func randomQueryGraph(seed int64) (*rdf.Graph, *sparql.Query) {
	rng := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph()
	nProps, nNodes := 4, 12
	for i := 0; i < 80; i++ {
		g.Add(
			rdf.NewIRI(fmt.Sprintf("n%d", rng.Intn(nNodes))),
			rdf.NewIRI(fmt.Sprintf("p%d", rng.Intn(nProps))),
			rdf.NewIRI(fmt.Sprintf("n%d", rng.Intn(nNodes))),
		)
	}
	g.Dedup()
	nPats := 2 + rng.Intn(3)
	varNames := []string{"a", "b", "c", "d"}
	var pats []string
	for i := 0; i < nPats; i++ {
		s := "?" + varNames[rng.Intn(len(varNames))]
		if rng.Intn(5) == 0 {
			s = fmt.Sprintf("<n%d>", rng.Intn(nNodes))
		}
		o := "?" + varNames[rng.Intn(len(varNames))]
		if rng.Intn(5) == 0 {
			o = fmt.Sprintf("<n%d>", rng.Intn(nNodes))
		}
		p := fmt.Sprintf("<p%d>", rng.Intn(nProps))
		pats = append(pats, fmt.Sprintf("%s %s %s .", s, p, o))
	}
	qs := "SELECT * WHERE { "
	for _, p := range pats {
		qs += p + " "
	}
	qs += "}"
	return g, sparql.MustParse(qs)
}

func TestEvaluateMatchesOracleRandomized(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g, q := randomQueryGraph(seed)
		rel, _, err := Evaluate(q, InputsFromGraph(g, q), g.Dict, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := Naive(g, q)
		if !sameRelation(rel, want) {
			t.Fatalf("seed %d: Evaluate %d rows, Naive %d rows\nquery:\n%s",
				seed, rel.Card(), want.Card(), q)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT * WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . ?c <http://x/name> ?n }`)
	_, stats := evalOnGraph(t, g, q)
	if stats.Joins != 2 {
		t.Errorf("Joins = %d, want 2", stats.Joins)
	}
	if stats.InputRows != 4+4+3 {
		t.Errorf("InputRows = %d, want 11", stats.InputRows)
	}
	if stats.OutputRows == 0 || stats.IntermediateRows == 0 {
		t.Errorf("stats = %+v", stats)
	}
}
