package sparql

import (
	"strings"

	"ping/internal/rdf"
)

// Property paths implement the paper's §6.2 future-work item: navigational
// queries, including recursion. The supported grammar in the predicate
// position of a triple pattern is
//
//	path    := alt
//	alt     := seq ('|' seq)*
//	seq     := unary ('/' unary)*
//	unary   := primary ('+' | '*')?
//	primary := IRI | prefixed name | 'a' | '(' path ')'
//
// '+' is one-or-more (transitive closure), '*' is zero-or-more (reflexive
// transitive closure). All path operators are monotone, so progressive
// evaluation remains sound: answers only grow as more levels load.

// Path is a property-path expression.
type Path interface {
	isPath()
	// String renders the path in SPARQL surface syntax.
	String() string
	// IRIs appends the property IRIs mentioned anywhere in the path.
	IRIs(acc []rdf.Term) []rdf.Term
	// Nullable reports whether the path matches the empty (zero-length)
	// path, i.e. every node relates to itself.
	Nullable() bool
}

// PathIRI is a single property step.
type PathIRI struct {
	IRI rdf.Term
}

func (p PathIRI) isPath()        {}
func (p PathIRI) String() string { return p.IRI.String() }
func (p PathIRI) IRIs(acc []rdf.Term) []rdf.Term {
	return append(acc, p.IRI)
}

// Nullable reports false: a single step always moves.
func (p PathIRI) Nullable() bool { return false }

// PathSeq is the concatenation p1/p2/....
type PathSeq struct {
	Parts []Path
}

func (p PathSeq) isPath() {}
func (p PathSeq) String() string {
	parts := make([]string, len(p.Parts))
	for i, sub := range p.Parts {
		parts[i] = maybeParen(sub, true)
	}
	return strings.Join(parts, "/")
}
func (p PathSeq) IRIs(acc []rdf.Term) []rdf.Term {
	for _, sub := range p.Parts {
		acc = sub.IRIs(acc)
	}
	return acc
}

// Nullable reports whether every part is nullable.
func (p PathSeq) Nullable() bool {
	for _, sub := range p.Parts {
		if !sub.Nullable() {
			return false
		}
	}
	return true
}

// PathAlt is the alternation p1|p2|....
type PathAlt struct {
	Parts []Path
}

func (p PathAlt) isPath() {}
func (p PathAlt) String() string {
	parts := make([]string, len(p.Parts))
	for i, sub := range p.Parts {
		parts[i] = maybeParen(sub, false)
	}
	return strings.Join(parts, "|")
}
func (p PathAlt) IRIs(acc []rdf.Term) []rdf.Term {
	for _, sub := range p.Parts {
		acc = sub.IRIs(acc)
	}
	return acc
}

// Nullable reports whether any branch is nullable.
func (p PathAlt) Nullable() bool {
	for _, sub := range p.Parts {
		if sub.Nullable() {
			return true
		}
	}
	return false
}

// PathPlus is the one-or-more closure p+.
type PathPlus struct {
	Sub Path
}

func (p PathPlus) isPath()                        {}
func (p PathPlus) String() string                 { return closureOperand(p.Sub) + "+" }
func (p PathPlus) IRIs(acc []rdf.Term) []rdf.Term { return p.Sub.IRIs(acc) }

// Nullable reports whether the sub-path is nullable.
func (p PathPlus) Nullable() bool { return p.Sub.Nullable() }

// PathStar is the zero-or-more closure p*.
type PathStar struct {
	Sub Path
}

func (p PathStar) isPath()                        {}
func (p PathStar) String() string                 { return closureOperand(p.Sub) + "*" }
func (p PathStar) IRIs(acc []rdf.Term) []rdf.Term { return p.Sub.IRIs(acc) }

// Nullable reports true: zero steps always match.
func (p PathStar) Nullable() bool { return true }

// maybeParen wraps composite sub-paths in parentheses where precedence
// demands it (alternation binds loosest; tight contexts are sequence
// elements and closure operands).
func maybeParen(p Path, tight bool) string {
	switch p.(type) {
	case PathAlt:
		return "(" + p.String() + ")"
	case PathSeq:
		if tight {
			return "(" + p.String() + ")"
		}
	}
	return p.String()
}

// closureOperand renders the operand of '+' or '*'. The grammar allows
// one closure per primary, so a closure inside a closure needs
// parentheses too: (<p>+)+, not <p>++.
func closureOperand(p Path) string {
	switch p.(type) {
	case PathPlus, PathStar:
		return "(" + p.String() + ")"
	}
	return maybeParen(p, true)
}

// PathPattern is a triple pattern whose predicate is a property path.
type PathPattern struct {
	S    rdf.Term
	Path Path
	O    rdf.Term
}

// String renders the pattern in SPARQL surface syntax.
func (p PathPattern) String() string {
	return p.S.String() + " " + p.Path.String() + " " + p.O.String() + " ."
}

// Vars returns the pattern's distinct variable names in S, O order.
func (p PathPattern) Vars() []string {
	var out []string
	if p.S.IsVar() {
		out = append(out, p.S.Value)
	}
	if p.O.IsVar() && (!p.S.IsVar() || p.O.Value != p.S.Value) {
		out = append(out, p.O.Value)
	}
	return out
}
