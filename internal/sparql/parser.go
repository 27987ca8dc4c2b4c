package sparql

import (
	"fmt"
	"strings"

	"ping/internal/rdf"
)

// Parse parses a SPARQL SELECT query in the fragment PING supports:
//
//	PREFIX ns: <iri>            (any number)
//	SELECT [DISTINCT] (*|?v..)  projection
//	WHERE { tp . tp . ... }     basic graph pattern
//	[LIMIT n]
//
// Triple-pattern terms may be IRIs (<...> or prefixed names), literals,
// blank nodes, variables, or the keyword 'a' (rdf:type) in the predicate
// position.
//
// A query costs at most a constant times its length to parse and to
// render. Parse refuses with a *LimitError a query whose prefixed names
// expand to more than MaxExpansion times its length, or whose filters
// or property paths nest deeper than MaxDepth.
func Parse(input string) (*Query, error) {
	p := &parser{in: input, budget: MaxExpansion * len(input)}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("sparql: %w", err)
	}
	return q, nil
}

// MaxExpansion bounds the IRI bytes a query's prefixed names expand to,
// counted once per use (as String and the workload canonical form write
// them), as a multiple of the query's length.
const MaxExpansion = 16

// MaxDepth bounds the nesting of parentheses and '!' in a filter or a
// property path, both as written and as String renders it.
const MaxDepth = 64

// LimitError reports a query refused by one of the parser's bounds
// rather than by its syntax.
type LimitError struct {
	// What names the bound: "expanded IRI bytes" or "nesting depth".
	What  string
	Limit int
	// Offset is where in the query the bound was passed.
	Offset int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%s over the limit of %d at offset %d", e.What, e.Limit, e.Offset)
}

// MustParse is Parse that panics on error; intended for tests, examples,
// and generated workloads that are correct by construction.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type token struct {
	text string
	pos  int
}

// scan returns the token at p.off and moves past it. IRIs and literals
// are kept whole; punctuation characters {, }, ., ;, and , are their
// own tokens. Tokens are read on demand, so a query refused part way
// never tokenizes the rest of its text.
func (p *parser) scan() (token, bool) {
	in, i := p.in, p.off
	for i < len(in) {
		switch c := in[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#': // comment to end of line
			for i < len(in) && in[i] != '\n' {
				i++
			}
		default:
			j := tokenEnd(in, i)
			p.off = j
			return token{in[i:j], i}, true
		}
	}
	p.off = i
	return token{}, false
}

// tokenEnd returns the end of the token that starts at in[i], which is
// not white space.
func tokenEnd(in string, i int) int {
	switch c := in[i]; {
	case c == '<':
		// '<' opens an IRI unless white space or the end of the text
		// comes before '>', in which case it is the less-than operator
		// (FILTER).
		for j := i + 1; j < len(in); j++ {
			if c := in[j]; c == '>' {
				return j + 1
			} else if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
		}
		if i+1 < len(in) && in[i+1] == '=' {
			return i + 2
		}
		return i + 1
	case c == '"':
		j := i + 1
		for j < len(in) {
			if in[j] == '\\' {
				j += 2
				continue
			}
			if in[j] == '"' {
				break
			}
			j++
		}
		if j >= len(in) {
			return len(in)
		}
		j++ // past closing quote
		// Absorb @lang or ^^<datatype>.
		if j < len(in) && in[j] == '@' {
			for j < len(in) && !isDelim(in[j]) && in[j] != ' ' {
				j++
			}
		} else if strings.HasPrefix(in[j:], "^^<") {
			if k := strings.IndexByte(in[j:], '>'); k >= 0 {
				j += k + 1
			} else {
				j = len(in)
			}
		}
		return j
	case c == '{' || c == '}' || c == '.' || c == ';' || c == ',' ||
		c == '(' || c == ')' || c == '|' || c == '/' || c == '+' || c == '*':
		return i + 1
	default:
		j := i
		for j < len(in) && !isBreak(in[j]) {
			j++
		}
		return j
	}
}

func isDelim(c byte) bool {
	return c == '{' || c == '}' || c == '.' || c == ';' || c == ',' ||
		c == '(' || c == ')' || c == '|' || c == '/' || c == '+' || c == '*' ||
		c == '\t' || c == '\n' || c == '\r'
}

func isBreak(c byte) bool {
	return c == ' ' || c == '<' || c == '"' || isDelim(c)
}

type parser struct {
	in  string
	off int
	// la is the token read ahead of the parse position, if hasLA.
	la    token
	hasLA bool

	prefixes map[string]string
	// iris interns each distinct prefixed name once per parse; budget
	// is what is left of the expansion bound; depth is the current
	// nesting of parentheses and '!'.
	iris   map[string]rdf.Term
	budget int
	depth  int
}

func (p *parser) peek() (token, bool) {
	if !p.hasLA {
		p.la, p.hasLA = p.scan()
	}
	return p.la, p.hasLA
}

// skip drops the token peek returned.
func (p *parser) skip() { p.hasLA = false }

func (p *parser) next() (token, bool) {
	t, ok := p.peek()
	if ok {
		p.skip()
	}
	return t, ok
}

// enter descends one level of nesting at t; leave undoes it.
func (p *parser) enter(t token) error {
	if p.depth++; p.depth > MaxDepth {
		return &LimitError{What: "nesting depth", Limit: MaxDepth, Offset: t.pos}
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) expect(text string) error {
	t, ok := p.next()
	if !ok {
		return fmt.Errorf("expected %q, got end of query", text)
	}
	if !strings.EqualFold(t.text, text) {
		return fmt.Errorf("expected %q at offset %d, got %q", text, t.pos, t.text)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	p.prefixes = map[string]string{
		"rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
	}
	for {
		t, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("empty query")
		}
		if !strings.EqualFold(t.text, "PREFIX") {
			break
		}
		p.skip()
		if err := p.parsePrefix(); err != nil {
			return nil, err
		}
	}
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	if t, ok := p.peek(); ok && strings.EqualFold(t.text, "DISTINCT") {
		q.Distinct = true
		p.skip()
	}
	// Projection.
	for {
		t, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("unexpected end of query in projection")
		}
		if t.text == "*" {
			if len(q.Vars) > 0 {
				return nil, fmt.Errorf("cannot mix * with explicit variables")
			}
			p.skip()
			break
		}
		if strings.HasPrefix(t.text, "?") || strings.HasPrefix(t.text, "$") {
			if len(t.text) < 2 {
				return nil, fmt.Errorf("empty variable at offset %d", t.pos)
			}
			q.Vars = append(q.Vars, t.text[1:])
			p.skip()
			continue
		}
		if strings.EqualFold(t.text, "WHERE") {
			if len(q.Vars) == 0 {
				return nil, fmt.Errorf("empty projection")
			}
			break
		}
		return nil, fmt.Errorf("unexpected token %q in projection", t.text)
	}
	if t, ok := p.peek(); ok && strings.EqualFold(t.text, "WHERE") {
		p.skip()
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	if err := p.parseBGP(q); err != nil {
		return nil, err
	}
	// Optional LIMIT.
	if t, ok := p.peek(); ok && strings.EqualFold(t.text, "LIMIT") {
		p.skip()
		lt, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("LIMIT without a value")
		}
		var n int
		if _, err := fmt.Sscanf(lt.text, "%d", &n); err != nil || n < 0 {
			return nil, fmt.Errorf("bad LIMIT value %q", lt.text)
		}
		q.Limit = n
	}
	if t, ok := p.peek(); ok {
		return nil, fmt.Errorf("unexpected trailing token %q at offset %d", t.text, t.pos)
	}
	if len(q.Patterns) == 0 && len(q.Paths) == 0 {
		return nil, fmt.Errorf("empty basic graph pattern")
	}
	return q, nil
}

// parseFilter parses FILTER '(' expr ')'.
func (p *parser) parseFilter() (Expr, error) {
	t, _ := p.peek()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	expr, err := p.parseFilterOr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	// String wraps every part of && and || in parentheses and writes
	// ! as !( ), so the rendering can nest deeper than the text did.
	// Bounding that depth too keeps every accepted query's rendering
	// parseable.
	if renderDepth(expr) > MaxDepth {
		return nil, &LimitError{What: "nesting depth", Limit: MaxDepth, Offset: t.pos}
	}
	return expr, nil
}

// renderDepth is the nesting of parentheses and '!' in e.String(). The
// parser's own depth bound keeps e shallow enough to walk.
func renderDepth(e Expr) int {
	var parts []Expr
	switch e := e.(type) {
	case Not:
		return 2 + renderDepth(e.Sub)
	case And:
		parts = e.Parts
	case Or:
		parts = e.Parts
	}
	d := 0
	for _, part := range parts {
		d = max(d, 1+renderDepth(part))
	}
	return d
}

// parseFilterOr parses and ('||' and)*. The tokenizer emits '|' as single
// characters, so '||' arrives as two adjacent tokens.
func (p *parser) parseFilterOr() (Expr, error) {
	first, err := p.parseFilterAnd()
	if err != nil {
		return nil, err
	}
	parts := []Expr{first}
	for {
		t1, ok1 := p.peek()
		if !ok1 || t1.text != "|" {
			break
		}
		p.skip()
		if t2, ok := p.next(); !ok || t2.text != "|" {
			return nil, fmt.Errorf("single '|' in filter expression at offset %d", t1.pos)
		}
		next, err := p.parseFilterAnd()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return Or{Parts: parts}, nil
}

// parseFilterAnd parses prim ('&&' prim)*.
func (p *parser) parseFilterAnd() (Expr, error) {
	first, err := p.parseFilterPrim()
	if err != nil {
		return nil, err
	}
	parts := []Expr{first}
	for {
		t, ok := p.peek()
		if !ok || t.text != "&&" {
			break
		}
		p.skip()
		next, err := p.parseFilterPrim()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return And{Parts: parts}, nil
}

// parseFilterPrim parses '(' expr ')', '!' prim, or a comparison.
func (p *parser) parseFilterPrim() (Expr, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("unexpected end of query in filter")
	}
	if t.text == "(" || t.text == "!" {
		p.skip()
		if err := p.enter(t); err != nil {
			return nil, err
		}
		defer p.leave()
		if t.text == "!" {
			inner, err := p.parseFilterPrim()
			if err != nil {
				return nil, err
			}
			return Not{Sub: inner}, nil
		}
		inner, err := p.parseFilterOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	left, err := p.parseFilterTerm()
	if err != nil {
		return nil, err
	}
	opTok, ok := p.next()
	if !ok {
		return nil, fmt.Errorf("filter comparison missing operator")
	}
	var op CmpOp
	switch opTok.text {
	case "=", "==":
		op = OpEq
	case "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return nil, fmt.Errorf("unknown filter operator %q", opTok.text)
	}
	right, err := p.parseFilterTerm()
	if err != nil {
		return nil, err
	}
	return Comparison{Left: left, Op: op, Right: right}, nil
}

// parseFilterTerm parses a variable, literal, bare numeral, IRI, or
// prefixed name inside a filter.
func (p *parser) parseFilterTerm() (rdf.Term, error) {
	t, ok := p.peek()
	if !ok {
		return rdf.Term{}, fmt.Errorf("unexpected end of query in filter term")
	}
	// Bare numerals become xsd:integer / xsd:double typed literals.
	if len(t.text) > 0 && (t.text[0] >= '0' && t.text[0] <= '9' || t.text[0] == '-' && len(t.text) > 1) {
		p.skip()
		dt := "http://www.w3.org/2001/XMLSchema#integer"
		if strings.ContainsAny(t.text, ".eE") {
			dt = "http://www.w3.org/2001/XMLSchema#double"
		}
		return rdf.NewTypedLiteral(t.text, dt), nil
	}
	return p.parsePatternTerm(posObject)
}

// parsePredicate parses the predicate position: either a variable (term,
// nil, nil), or a property path. A path consisting of a single bare IRI is
// returned as a plain term so ordinary BGP patterns stay on the fast path.
func (p *parser) parsePredicate() (rdf.Term, Path, error) {
	if t, ok := p.peek(); ok && (strings.HasPrefix(t.text, "?") || strings.HasPrefix(t.text, "$")) {
		term, err := p.parsePatternTerm(posPredicate)
		return term, nil, err
	}
	path, err := p.parsePathAlt()
	if err != nil {
		return rdf.Term{}, nil, err
	}
	if iri, ok := path.(PathIRI); ok {
		return iri.IRI, nil, nil
	}
	return rdf.Term{}, path, nil
}

// parsePathAlt parses seq ('|' seq)*.
func (p *parser) parsePathAlt() (Path, error) {
	first, err := p.parsePathSeq()
	if err != nil {
		return nil, err
	}
	parts := []Path{first}
	for {
		t, ok := p.peek()
		if !ok || t.text != "|" {
			break
		}
		p.skip()
		next, err := p.parsePathSeq()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return PathAlt{Parts: parts}, nil
}

// parsePathSeq parses unary ('/' unary)*.
func (p *parser) parsePathSeq() (Path, error) {
	first, err := p.parsePathUnary()
	if err != nil {
		return nil, err
	}
	parts := []Path{first}
	for {
		t, ok := p.peek()
		if !ok || t.text != "/" {
			break
		}
		p.skip()
		next, err := p.parsePathUnary()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return PathSeq{Parts: parts}, nil
}

// parsePathUnary parses primary ('+' | '*')?.
func (p *parser) parsePathUnary() (Path, error) {
	prim, err := p.parsePathPrimary()
	if err != nil {
		return nil, err
	}
	if t, ok := p.peek(); ok {
		switch t.text {
		case "+":
			p.skip()
			return PathPlus{Sub: prim}, nil
		case "*":
			p.skip()
			return PathStar{Sub: prim}, nil
		}
	}
	return prim, nil
}

// parsePathPrimary parses an IRI, prefixed name, 'a', or parenthesized
// path.
func (p *parser) parsePathPrimary() (Path, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("unexpected end of query in property path")
	}
	if t.text == "(" {
		p.skip()
		if err := p.enter(t); err != nil {
			return nil, err
		}
		defer p.leave()
		inner, err := p.parsePathAlt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	term, err := p.parsePatternTerm(posPredicate)
	if err != nil {
		return nil, err
	}
	if term.Kind != rdf.IRI {
		return nil, fmt.Errorf("property path step must be an IRI, got %s", term.Kind)
	}
	return PathIRI{IRI: term}, nil
}

func (p *parser) parsePrefix() error {
	name, ok := p.next()
	if !ok {
		return fmt.Errorf("PREFIX without a name")
	}
	if !strings.HasSuffix(name.text, ":") {
		return fmt.Errorf("prefix name %q must end with ':'", name.text)
	}
	iri, ok := p.next()
	if !ok {
		return fmt.Errorf("PREFIX %s without an IRI", name.text)
	}
	if !strings.HasPrefix(iri.text, "<") || !strings.HasSuffix(iri.text, ">") {
		return fmt.Errorf("PREFIX %s: expected <iri>, got %q", name.text, iri.text)
	}
	p.prefixes[strings.TrimSuffix(name.text, ":")] = iri.text[1 : len(iri.text)-1]
	return nil
}

// parseBGP parses triple patterns up to the closing brace, supporting '.'
// separators plus ';' (same subject) and ',' (same subject and predicate)
// continuation lists.
func (p *parser) parseBGP(q *Query) error {
	var curS, curP rdf.Term
	haveS, haveP := false, false
	for {
		t, ok := p.peek()
		if !ok {
			return fmt.Errorf("unterminated BGP: missing '}'")
		}
		if t.text == "}" {
			p.skip()
			return nil
		}
		if strings.EqualFold(t.text, "FILTER") {
			p.skip()
			expr, err := p.parseFilter()
			if err != nil {
				return err
			}
			q.Filters = append(q.Filters, expr)
			// Optional '.' after a filter.
			if sep, ok := p.peek(); ok && sep.text == "." {
				p.skip()
			}
			haveS, haveP = false, false
			continue
		}
		var s, pr, o rdf.Term
		var path Path
		var err error
		if haveS {
			s = curS
		} else {
			if s, err = p.parsePatternTerm(posSubject); err != nil {
				return err
			}
		}
		if haveP {
			pr = curP
		} else {
			pr, path, err = p.parsePredicate()
			if err != nil {
				return err
			}
		}
		if o, err = p.parsePatternTerm(posObject); err != nil {
			return err
		}
		if path != nil {
			q.Paths = append(q.Paths, PathPattern{S: s, Path: path, O: o})
		} else {
			q.Patterns = append(q.Patterns, TriplePattern{S: s, P: pr, O: o})
		}
		sep, ok := p.peek()
		if !ok {
			return fmt.Errorf("unterminated BGP: missing '}'")
		}
		switch sep.text {
		case ".":
			p.skip()
			haveS, haveP = false, false
		case ";":
			p.skip()
			curS, haveS, haveP = s, true, false
		case ",":
			if path != nil {
				return fmt.Errorf("',' continuation after a property path is not supported")
			}
			p.skip()
			curS, curP, haveS, haveP = s, pr, true, true
		case "}":
			haveS, haveP = false, false
		default:
			return fmt.Errorf("expected '.', ';', ',' or '}' after pattern, got %q", sep.text)
		}
	}
}

type termPos int

const (
	posSubject termPos = iota
	posPredicate
	posObject
)

func (p *parser) parsePatternTerm(pos termPos) (rdf.Term, error) {
	t, ok := p.next()
	if !ok {
		return rdf.Term{}, fmt.Errorf("unexpected end of query in triple pattern")
	}
	txt := t.text
	switch {
	case strings.HasPrefix(txt, "?") || strings.HasPrefix(txt, "$"):
		if len(txt) < 2 {
			return rdf.Term{}, fmt.Errorf("empty variable at offset %d", t.pos)
		}
		return rdf.NewVar(txt[1:]), nil
	case strings.HasPrefix(txt, "<") && strings.HasSuffix(txt, ">"):
		return rdf.NewIRI(txt[1 : len(txt)-1]), nil
	case txt == "a" && pos == posPredicate:
		return rdf.NewIRI(rdf.RDFType), nil
	case strings.HasPrefix(txt, "_:"):
		if pos == posPredicate {
			return rdf.Term{}, fmt.Errorf("blank node in predicate position at offset %d", t.pos)
		}
		return rdf.NewBlank(txt[2:]), nil
	case strings.HasPrefix(txt, `"`):
		if pos != posObject {
			return rdf.Term{}, fmt.Errorf("literal outside object position at offset %d", t.pos)
		}
		term, rest, err := rdf.ParseTermString(txt)
		if err != nil || strings.TrimSpace(rest) != "" {
			return rdf.Term{}, fmt.Errorf("malformed literal %q at offset %d", txt, t.pos)
		}
		return term, nil
	case strings.Contains(txt, ":"):
		term, ok := p.iris[txt]
		if !ok {
			i := strings.IndexByte(txt, ':')
			base, ok := p.prefixes[txt[:i]]
			if !ok {
				return rdf.Term{}, fmt.Errorf("undeclared prefix %q at offset %d", txt[:i], t.pos)
			}
			term = rdf.NewIRI(base + txt[i+1:])
			if p.iris == nil {
				p.iris = make(map[string]rdf.Term)
			}
			p.iris[txt] = term
		}
		if p.budget -= len(term.Value); p.budget < 0 {
			return rdf.Term{}, &LimitError{What: "expanded IRI bytes", Limit: MaxExpansion * len(p.in), Offset: t.pos}
		}
		return term, nil
	default:
		return rdf.Term{}, fmt.Errorf("cannot parse term %q at offset %d", txt, t.pos)
	}
}
