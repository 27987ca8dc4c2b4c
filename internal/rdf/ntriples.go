package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseNTriples reads an N-Triples document into a fresh graph. Lines that
// are empty or comments (#) are skipped. The parser is permissive about
// surrounding whitespace but strict about term syntax, and fails with the
// offending line number on malformed input.
func ParseNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	if err := ParseNTriplesInto(r, g); err != nil {
		return nil, err
	}
	return g, nil
}

// ParseNTriplesInto reads an N-Triples document, appending triples to an
// existing graph (and interning terms into its dictionary).
func ParseNTriplesInto(r io.Reader, g *Graph) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, o, err := parseTripleLine(line)
		if err != nil {
			return fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		g.Add(s, p, o)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("rdf: line %d: %w", lineNo, err)
	}
	return nil
}

// parseTripleLine parses one "<s> <p> <o> ." statement.
func parseTripleLine(line string) (s, p, o Term, err error) {
	s, rest, err := parseTerm(line)
	if err != nil {
		return s, p, o, fmt.Errorf("subject: %w", err)
	}
	p, rest, err = parseTerm(rest)
	if err != nil {
		return s, p, o, fmt.Errorf("predicate: %w", err)
	}
	if p.Kind != IRI {
		return s, p, o, fmt.Errorf("predicate must be an IRI, got %s", p.Kind)
	}
	o, rest, err = parseTerm(rest)
	if err != nil {
		return s, p, o, fmt.Errorf("object: %w", err)
	}
	rest = strings.TrimSpace(rest)
	if rest != "." {
		return s, p, o, fmt.Errorf("expected terminating '.', got %q", rest)
	}
	if s.Kind == Literal {
		return s, p, o, fmt.Errorf("subject may not be a literal")
	}
	return s, p, o, nil
}

// parseTerm parses the first term of input and returns it with the
// remaining input. It accepts IRIs, blank nodes, literals (with optional
// language tag or datatype), and ?variables (for reuse by the SPARQL
// parser).
func parseTerm(input string) (Term, string, error) {
	in := strings.TrimLeft(input, " \t")
	if in == "" {
		return Term{}, in, fmt.Errorf("unexpected end of input")
	}
	switch in[0] {
	case '<':
		end := strings.IndexByte(in, '>')
		if end < 0 {
			return Term{}, in, fmt.Errorf("unterminated IRI %q", in)
		}
		return NewIRI(in[1:end]), in[end+1:], nil
	case '_':
		if len(in) < 2 || in[1] != ':' {
			return Term{}, in, fmt.Errorf("malformed blank node %q", in)
		}
		end := termEnd(in, 2)
		if end == 2 {
			return Term{}, in, fmt.Errorf("empty blank node label in %q", in)
		}
		return NewBlank(in[2:end]), in[end:], nil
	case '?', '$':
		end := termEnd(in, 1)
		if end == 1 {
			return Term{}, in, fmt.Errorf("empty variable name in %q", in)
		}
		return NewVar(in[1:end]), in[end:], nil
	case '"':
		return parseLiteral(in)
	default:
		return Term{}, in, fmt.Errorf("unexpected character %q", in[0])
	}
}

// termEnd returns the index of the first whitespace / statement delimiter
// at or after position start.
func termEnd(s string, start int) int {
	for i := start; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '.', ';', ',', ')', '}':
			return i
		}
	}
	return len(s)
}

// parseLiteral parses a quoted literal with optional @lang or ^^<datatype>.
func parseLiteral(in string) (Term, string, error) {
	// Find the closing quote, honoring backslash escapes.
	end := -1
	for i := 1; i < len(in); i++ {
		if in[i] == '\\' {
			i++
			continue
		}
		if in[i] == '"' {
			end = i
			break
		}
	}
	if end < 0 {
		return Term{}, in, fmt.Errorf("unterminated literal %q", in)
	}
	value := unescapeLiteral(in[1:end])
	rest := in[end+1:]
	switch {
	case strings.HasPrefix(rest, "@"):
		i := termEnd(rest, 1)
		if i == 1 {
			return Term{}, in, fmt.Errorf("empty language tag in %q", in)
		}
		return NewLangLiteral(value, rest[1:i]), rest[i:], nil
	case strings.HasPrefix(rest, "^^<"):
		i := strings.IndexByte(rest, '>')
		if i < 0 {
			return Term{}, in, fmt.Errorf("unterminated datatype IRI in %q", in)
		}
		return NewTypedLiteral(value, rest[3:i]), rest[i+1:], nil
	default:
		return NewLiteral(value), rest, nil
	}
}

// isCanonical reports whether line, which parseTerm read as t leaving
// rest, is exactly t's surface form: the bytes t.appendTo writes. It
// decides without building that form, so a long escaped literal costs
// no copy.
func isCanonical(line string, t Term, rest string) bool {
	if rest != "" || line == "" || line[0] == ' ' || line[0] == '\t' {
		return false
	}
	switch t.Kind {
	case IRI, Blank:
		return true
	case Variable:
		return line[0] == '?'
	case Literal:
		// rest is empty, so the suffix fixes where the closing quote is.
		end := len(line) - 1
		if t.Lang != "" {
			end -= len(t.Lang) + 1
		} else if t.Datatype != "" {
			end -= len(t.Datatype) + 4
		}
		return end > 0 && line[end] == '"' && canonicalLiteralBody(line[1:end])
	}
	return false
}

// canonicalLiteralBody reports whether the escaped body of a literal is
// what appendEscaped writes for its unescaped value.
func canonicalLiteralBody(body string) bool {
	if !strings.ContainsAny(body, "\\\n\r\t") {
		return true
	}
	// An escape makes appendEscaped write rune by rune, which replaces
	// invalid UTF-8.
	if !utf8.ValidString(body) {
		return false
	}
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\n', '\r', '\t':
			return false
		case '\\':
			i++
			if i == len(body) || strings.IndexByte(`"\nrt`, body[i]) < 0 {
				return false
			}
		}
	}
	return true
}

// ParseTermString parses the first term of an N-Triples-syntax string and
// returns it along with the unconsumed remainder. It accepts IRIs, blank
// nodes, literals, and ?variables; the SPARQL parser reuses it for literal
// tokens.
func ParseTermString(input string) (Term, string, error) {
	return parseTerm(input)
}

// WriteNTriples serializes the graph in N-Triples syntax, one statement per
// line, in the stored triple order. It returns the number of bytes written,
// which the harness uses as the raw-dataset size for reduction factors.
func WriteNTriples(w io.Writer, g *Graph) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	for _, t := range g.Triples {
		k, err := fmt.Fprintf(bw, "%s %s %s .\n",
			g.Dict.TermString(t.S), g.Dict.TermString(t.P), g.Dict.TermString(t.O))
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// NTriplesSize returns the serialized N-Triples byte size of the graph
// without materializing the document.
func NTriplesSize(g *Graph) int64 {
	var n int64
	for _, t := range g.Triples {
		n += int64(len(g.Dict.TermString(t.S)) + len(g.Dict.TermString(t.P)) +
			len(g.Dict.TermString(t.O)) + 5) // 2 separators + " .\n"
	}
	return n
}
