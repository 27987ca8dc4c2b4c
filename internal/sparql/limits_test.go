package sparql

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// prefixBombQuery declares one 10 KB prefix and uses it 10 000 times in
// a filter: 130 KB of text that names 100 MB of IRIs.
func prefixBombQuery() string {
	var b strings.Builder
	b.WriteString("PREFIX p: <http://e/" + strings.Repeat("x", 10_000) + ">\n")
	b.WriteString("SELECT * WHERE { ?s ?p ?o . FILTER (?o = p:a")
	for i := 1; i < 10_000; i++ {
		b.WriteString(" || ?o = p:a")
	}
	b.WriteString(") }")
	return b.String()
}

func wantLimit(t *testing.T, err error, what string) {
	t.Helper()
	var le *LimitError
	if !errors.As(err, &le) || le.What != what {
		t.Fatalf("err = %v, want a *LimitError on %s", err, what)
	}
}

// TestParsePrefixBombIsRefusedCheaply: before the expansion bound, this
// query allocated over 100 MB in Parse, one expanded IRI per use.
func TestParsePrefixBombIsRefusedCheaply(t *testing.T) {
	text := prefixBombQuery()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(text)
	runtime.ReadMemStats(&after)
	wantLimit(t, err, "expanded IRI bytes")
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2*uint64(len(text)) {
		t.Errorf("Parse of a %d-byte query allocated %d bytes, want < 2x the text", len(text), alloc)
	}
}

// TestParseExpansionWithinBoundIsInterned: a prefixed name used many
// times within the bound is accepted, and every use shares one string.
func TestParseExpansionWithinBoundIsInterned(t *testing.T) {
	q, err := Parse(`PREFIX ex: <http://example.org/a/rather/long/namespace/> SELECT * WHERE {
		?s ex:p ?o . ?s ex:p ?o2 . ?s ex:p ?o3 . ?s ex:p ?o4 }`)
	if err != nil {
		t.Fatal(err)
	}
	a, b := q.Patterns[0].P.Value, q.Patterns[3].P.Value
	if a != "http://example.org/a/rather/long/namespace/p" || a != b {
		t.Fatalf("predicates %q and %q", a, b)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("two uses of ex:p hold two copies of its IRI")
	}
}

// TestParseDeepNestingIsRefused: 100 000 nested parentheses took 288 ms
// and a 128 MB goroutine stack to parse before the depth bound; a chain
// of '!' built a Not tree as deep as the chain.
func TestParseDeepNestingIsRefused(t *testing.T) {
	const n = 100_000
	parens := "SELECT * WHERE { ?s <p> ?o . FILTER (" + strings.Repeat("(", n) + "?o = 1" + strings.Repeat(")", n) + ") }"
	_, err := Parse(parens)
	wantLimit(t, err, "nesting depth")

	nots := "SELECT * WHERE { ?s <p> ?o . FILTER (" + strings.Repeat("! ", 10_000) + "?o = 1) }"
	_, err = Parse(nots)
	wantLimit(t, err, "nesting depth")

	path := "SELECT * WHERE { ?s " + strings.Repeat("(", n) + "<p>" + strings.Repeat(")", n) + " ?o }"
	_, err = Parse(path)
	wantLimit(t, err, "nesting depth")
}

// TestParseDepthBoundHoldsForRenderings: String writes ! as !( ), so a
// chain of k spaced '!' renders MaxDepth deep at k = MaxDepth/2. That chain is
// accepted and its rendering parses; one more '!' is refused.
func TestParseDepthBoundHoldsForRenderings(t *testing.T) {
	chain := func(k int) string {
		return "SELECT * WHERE { ?s <p> ?o . FILTER (" + strings.Repeat("! ", k) + "?o = 1) }"
	}
	q, err := Parse(chain(MaxDepth / 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(q.String()); err != nil {
		t.Fatalf("rendering of an accepted query: %v", err)
	}
	_, err = Parse(chain(MaxDepth/2 + 1))
	wantLimit(t, err, "nesting depth")
}
