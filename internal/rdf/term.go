// Package rdf implements the RDF data model used throughout PING: terms
// (IRIs, literals, blank nodes), triples, dictionary encoding of terms to
// dense integer IDs, an in-memory graph, and an N-Triples reader/writer.
//
// All higher layers (partitioning, indexing, query evaluation) operate on
// dictionary-encoded triples — three uint32 IDs — which keeps partitions
// compact and makes joins cheap integer comparisons, mirroring the
// dictionary encoding used by the triple stores the paper builds on.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind distinguishes the three kinds of RDF terms plus variables, which
// appear only in query patterns, never in data.
type TermKind uint8

const (
	// IRI is a Uniform Resource Identifier reference.
	IRI TermKind = iota
	// Literal is a (possibly typed or language-tagged) literal value.
	Literal
	// Blank is a blank node.
	Blank
	// Variable is a query variable; it never occurs in stored data.
	Variable
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	case Variable:
		return "variable"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is an RDF term or a query variable. Value holds the lexical form
// without surface decoration: the IRI string for IRIs, the label for blank
// nodes and variables, and the lexical value for literals. Literals may
// additionally carry a datatype IRI or a language tag.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string // literal datatype IRI, "" if plain
	Lang     string // literal language tag, "" if none
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewTypedLiteral returns a literal with a datatype IRI.
func NewTypedLiteral(v, datatype string) Term {
	return Term{Kind: Literal, Value: v, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(v, lang string) Term {
	return Term{Kind: Literal, Value: v, Lang: lang}
}

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewVar returns a query variable with the given name (without the '?').
func NewVar(name string) Term { return Term{Kind: Variable, Value: name} }

// IsVar reports whether the term is a query variable.
func (t Term) IsVar() bool { return t.Kind == Variable }

// IsConcrete reports whether the term is a data term (not a variable).
func (t Term) IsConcrete() bool { return t.Kind != Variable }

// String renders the term in N-Triples surface syntax (variables render as
// SPARQL ?name). The rendering is injective across kinds, so it doubles as
// the dictionary key.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	case Variable:
		return "?" + t.Value
	case Literal:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	default:
		return fmt.Sprintf("!invalid(%d)", t.Kind)
	}
}

// appendTo appends the String form of t to b, without allocating for
// the IRIs and blank nodes that make up most of a dictionary.
func (t Term) appendTo(b []byte) []byte {
	switch t.Kind {
	case IRI:
		b = append(b, '<')
		b = append(b, t.Value...)
		return append(b, '>')
	case Blank:
		return append(append(b, "_:"...), t.Value...)
	default:
		return append(b, t.String()...)
	}
}

// escapeLiteral escapes the characters that N-Triples requires escaping
// inside literal quotes.
func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// unescapeLiteral reverses escapeLiteral. Unknown escapes are passed
// through verbatim to stay permissive with real-world dumps.
func unescapeLiteral(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// RDFType is the IRI of the rdf:type property, which the paper treats as an
// ordinary property for partitioning purposes (§3.8).
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
