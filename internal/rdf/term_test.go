package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x.org/a"), "<http://x.org/a>"},
		{NewBlank("b1"), "_:b1"},
		{NewVar("x"), "?x"},
		{NewLiteral("hello"), `"hello"`},
		{NewLangLiteral("bonjour", "fr"), `"bonjour"@fr`},
		{NewTypedLiteral("5", "http://www.w3.org/2001/XMLSchema#int"), `"5"^^<http://www.w3.org/2001/XMLSchema#int>`},
		{NewLiteral(`say "hi"`), `"say \"hi\""`},
		{NewLiteral("a\nb\tc\\d"), `"a\nb\tc\\d"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermKindString(t *testing.T) {
	kinds := map[TermKind]string{IRI: "iri", Literal: "literal", Blank: "blank", Variable: "variable"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("TermKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if got := TermKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind rendered as %q", got)
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return unescapeLiteral(string(appendEscaped(nil, s))) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLiteralStringParseRoundTrip(t *testing.T) {
	f := func(s string) bool {
		// Control characters other than the escaped set are not valid
		// N-Triples; restrict to the escapable space.
		if strings.ContainsAny(s, "\x00\x01\x02\x03\x04\x05\x06\x07\x08\x0b\x0c") {
			return true
		}
		lit := NewLiteral(s)
		got, rest, err := parseTerm(lit.String())
		return err == nil && rest == "" && got == lit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIsVarIsConcrete(t *testing.T) {
	if !NewVar("x").IsVar() || NewVar("x").IsConcrete() {
		t.Error("variable misclassified")
	}
	if NewIRI("a").IsVar() || !NewIRI("a").IsConcrete() {
		t.Error("IRI misclassified")
	}
}

func TestUnescapeUnknownEscapePassthrough(t *testing.T) {
	if got := unescapeLiteral(`a\qb`); got != `a\qb` {
		t.Errorf("unescapeLiteral(a\\qb) = %q", got)
	}
	if got := unescapeLiteral(`trailing\`); got != `trailing\` {
		t.Errorf("unescapeLiteral(trailing\\) = %q", got)
	}
}
