package sparql

import (
	"strings"
	"testing"

	"ping/internal/rdf"
)

func TestParseSimplePathKinds(t *testing.T) {
	cases := []struct {
		in       string
		wantPath string
		nullable bool
	}{
		{`SELECT * WHERE { ?x <p>+ ?y }`, "<p>+", false},
		{`SELECT * WHERE { ?x <p>* ?y }`, "<p>*", true},
		{`SELECT * WHERE { ?x <p>/<q> ?y }`, "<p>/<q>", false},
		{`SELECT * WHERE { ?x <p>|<q> ?y }`, "<p>|<q>", false},
		{`SELECT * WHERE { ?x (<p>/<q>)+ ?y }`, "(<p>/<q>)+", false},
		{`SELECT * WHERE { ?x (<p>|<q>)* ?y }`, "(<p>|<q>)*", true},
		{`SELECT * WHERE { ?x <p>/<q>* ?y }`, "<p>/<q>*", false},
		{`SELECT * WHERE { ?x <a>|<b>/<c> ?y }`, "<a>|<b>/<c>", false},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if len(q.Paths) != 1 || len(q.Patterns) != 0 {
			t.Errorf("%q: paths=%d patterns=%d", c.in, len(q.Paths), len(q.Patterns))
			continue
		}
		if got := q.Paths[0].Path.String(); got != c.wantPath {
			t.Errorf("%q: path rendered %q, want %q", c.in, got, c.wantPath)
		}
		if got := q.Paths[0].Path.Nullable(); got != c.nullable {
			t.Errorf("%q: Nullable = %v, want %v", c.in, got, c.nullable)
		}
		// Round-trip through String().
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("re-parse %q: %v", q.String(), err)
			continue
		}
		if q2.Paths[0].Path.String() != c.wantPath {
			t.Errorf("%q: round trip changed path to %q", c.in, q2.Paths[0].Path.String())
		}
	}
}

func TestBareIRIStaysPlainPattern(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> ?y }`)
	if len(q.Paths) != 0 || len(q.Patterns) != 1 {
		t.Fatalf("bare IRI parsed as path: paths=%d patterns=%d", len(q.Paths), len(q.Patterns))
	}
	q2 := MustParse(`SELECT * WHERE { ?x a ?y }`)
	if len(q2.Paths) != 0 || q2.Patterns[0].P.Value != rdf.RDFType {
		t.Fatal("'a' predicate mangled")
	}
}

func TestPathMixedWithBGP(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?x <knows>+ ?y .
		?y <name> ?n .
	}`)
	if len(q.Paths) != 1 || len(q.Patterns) != 1 {
		t.Fatalf("paths=%d patterns=%d", len(q.Paths), len(q.Patterns))
	}
	vars := q.AllVars()
	if len(vars) != 3 {
		t.Errorf("AllVars = %v", vars)
	}
	if Classify(q) != ShapeComplex {
		t.Errorf("path query classified %v", Classify(q))
	}
	syms := q.Symbols()
	if len(syms) != 2 { // knows, name
		t.Errorf("Symbols = %v", syms)
	}
}

func TestPathWithPrefixedNames(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?x ex:knows+/ex:name ?n }`)
	if len(q.Paths) != 1 {
		t.Fatal("prefixed path not parsed")
	}
	iris := q.Paths[0].Path.IRIs(nil)
	if len(iris) != 2 || iris[0].Value != "http://ex.org/knows" || iris[1].Value != "http://ex.org/name" {
		t.Errorf("IRIs = %v", iris)
	}
}

func TestPathErrors(t *testing.T) {
	bad := []string{
		`SELECT * WHERE { ?x <p>/ ?y }`,      // dangling /
		`SELECT * WHERE { ?x <p>| ?y }`,      // dangling |
		`SELECT * WHERE { ?x (<p> ?y }`,      // unclosed paren
		`SELECT * WHERE { ?x <p>/?v ?y }`,    // variable inside path
		`SELECT * WHERE { ?x <p>/"l" ?y }`,   // literal inside path
		`SELECT * WHERE { ?x <p>+ ?y , ?z }`, // comma after path
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestPathPatternVars(t *testing.T) {
	pp := PathPattern{S: rdf.NewVar("x"), Path: PathIRI{IRI: rdf.NewIRI("p")}, O: rdf.NewVar("x")}
	if got := pp.Vars(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Vars = %v", got)
	}
	pp2 := PathPattern{S: rdf.NewIRI("s"), Path: PathIRI{IRI: rdf.NewIRI("p")}, O: rdf.NewVar("o")}
	if got := pp2.Vars(); len(got) != 1 || got[0] != "o" {
		t.Errorf("Vars = %v", got)
	}
}

func TestNestedPathNullability(t *testing.T) {
	// (p*/q*) is nullable, (p*/q) is not, (p|q*) is.
	q := MustParse(`SELECT * WHERE { ?x <p>*/<q>* ?y }`)
	if !q.Paths[0].Path.Nullable() {
		t.Error("p*/q* must be nullable")
	}
	q2 := MustParse(`SELECT * WHERE { ?x <p>*/<q> ?y }`)
	if q2.Paths[0].Path.Nullable() {
		t.Error("p*/q must not be nullable")
	}
	q3 := MustParse(`SELECT * WHERE { ?x <p>|<q>* ?y }`)
	if !q3.Paths[0].Path.Nullable() {
		t.Error("p|q* must be nullable")
	}
}

func TestPathQueryString(t *testing.T) {
	q := MustParse(`SELECT ?y WHERE { <s> <knows>+ ?y . ?y <name> ?n }`)
	s := q.String()
	if !strings.Contains(s, "<knows>+") || !strings.Contains(s, "<name>") {
		t.Errorf("String = %q", s)
	}
}

// TestNestedClosureRendersParseable: a closure inside a closure renders
// with parentheses, and the rendering parses back to the same path.
func TestNestedClosureRendersParseable(t *testing.T) {
	for _, in := range []string{`(<p0>+)+`, `(<p0>*)+`, `(<p0>+)*`, `((<a>/<b>)*)*`, `(<a>|<b>+)+`} {
		q := MustParse(`SELECT * WHERE { ?x ` + in + ` ?y }`)
		s := q.String()
		again, err := Parse(s)
		if err != nil {
			t.Errorf("%s renders as %q, which does not parse: %v", in, s, err)
			continue
		}
		if got, want := again.Paths[0].Path.String(), q.Paths[0].Path.String(); got != want {
			t.Errorf("%s: re-parsed path %s, want %s", in, got, want)
		}
	}
}
