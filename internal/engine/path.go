package engine

import (
	"fmt"

	"ping/internal/rdf"
	"ping/internal/sparql"
)

// Property-path evaluation (§6.2 navigational extension). Paths are
// evaluated to (subject, object) pair sets with set semantics:
//
//	IRI   — the property's pairs;
//	p/q   — relational composition;
//	p|q   — union;
//	p+    — transitive closure (semi-naive fixpoint);
//	p*    — p+ plus the zero-length pairs (x, x).
//
// Zero-length paths range over the nodes incident to the path's
// properties *within the evaluated data* (for a slice: the loaded
// sub-partitions; for exact evaluation: the full property extents). This
// is a monotone restriction of the SPARQL spec's "all graph terms", so
// progressive evaluation stays sound, and the final slice agrees with
// whole-graph evaluation because it loads every level of the involved
// properties.

// PathInput feeds one path pattern: the rows of every property the path
// mentions, grouped by property.
type PathInput struct {
	Pattern sparql.PathPattern
	Groups  []PropGroup
}

// TotalRows returns the data-access contribution of the path pattern.
func (in PathInput) TotalRows() int {
	n := 0
	for _, g := range in.Groups {
		n += g.Rows.Len()
	}
	return n
}

// pairSet is a deduplicated set of SO pairs.
type pairSet map[rdf.SOPair]struct{}

func (s pairSet) add(p rdf.SOPair) { s[p] = struct{}{} }

func (s pairSet) slice() []rdf.SOPair {
	out := make([]rdf.SOPair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	return out
}

// evalPath computes the pair set of a path over per-property extents.
func evalPath(path sparql.Path, byProp map[rdf.ID][]rdf.SOPair, universe []rdf.ID, dict Dict) pairSet {
	switch p := path.(type) {
	case sparql.PathIRI:
		out := make(pairSet)
		if id := dict.Lookup(p.IRI); id != rdf.NoID {
			for _, pr := range byProp[id] {
				out.add(pr)
			}
		}
		return out
	case sparql.PathSeq:
		if len(p.Parts) == 0 {
			return make(pairSet)
		}
		cur := evalPath(p.Parts[0], byProp, universe, dict)
		for _, part := range p.Parts[1:] {
			next := evalPath(part, byProp, universe, dict)
			cur = compose(cur, next)
		}
		return cur
	case sparql.PathAlt:
		out := make(pairSet)
		for _, part := range p.Parts {
			for pr := range evalPath(part, byProp, universe, dict) {
				out.add(pr)
			}
		}
		return out
	case sparql.PathPlus:
		return closure(evalPath(p.Sub, byProp, universe, dict))
	case sparql.PathStar:
		out := closure(evalPath(p.Sub, byProp, universe, dict))
		for _, n := range universe {
			out.add(rdf.SOPair{S: n, O: n})
		}
		return out
	default:
		return make(pairSet)
	}
}

// compose joins a.O with b.S.
func compose(a, b pairSet) pairSet {
	bySubject := make(map[rdf.ID][]rdf.ID)
	for pr := range b {
		bySubject[pr.S] = append(bySubject[pr.S], pr.O)
	}
	out := make(pairSet)
	for pr := range a {
		for _, o := range bySubject[pr.O] {
			out.add(rdf.SOPair{S: pr.S, O: o})
		}
	}
	return out
}

// closure computes the transitive closure with semi-naive iteration: each
// round extends only the newly discovered pairs.
func closure(base pairSet) pairSet {
	total := make(pairSet, len(base))
	for pr := range base {
		total.add(pr)
	}
	bySubject := make(map[rdf.ID][]rdf.ID)
	for pr := range base {
		bySubject[pr.S] = append(bySubject[pr.S], pr.O)
	}
	delta := total
	for len(delta) > 0 {
		next := make(pairSet)
		for pr := range delta {
			for _, o := range bySubject[pr.O] {
				cand := rdf.SOPair{S: pr.S, O: o}
				if _, seen := total[cand]; !seen {
					total.add(cand)
					next.add(cand)
				}
			}
		}
		delta = next
	}
	return total
}

// BuildPathRelation evaluates a path pattern's input rows into a relation
// over the pattern's variables, applying endpoint constants and the
// repeated-variable case (?x path ?x).
func BuildPathRelation(in PathInput, dict Dict) (*Relation, error) {
	pat := in.Pattern
	rel := &Relation{Vars: pat.Vars()}

	byProp := make(map[rdf.ID][]rdf.SOPair, len(in.Groups))
	universeSet := make(map[rdf.ID]struct{})
	for _, g := range in.Groups {
		byProp[g.Prop] = g.Rows.AppendTo(byProp[g.Prop])
		g.Rows.ForEach(func(pr rdf.SOPair) {
			universeSet[pr.S] = struct{}{}
			universeSet[pr.O] = struct{}{}
		})
	}
	universe := make([]rdf.ID, 0, len(universeSet))
	for n := range universeSet {
		universe = append(universe, n)
	}

	pairs := evalPath(pat.Path, byProp, universe, dict)

	var sConst, oConst rdf.ID
	sIsConst, oIsConst := pat.S.IsConcrete(), pat.O.IsConcrete()
	if sIsConst {
		if sConst = dict.Lookup(pat.S); sConst == rdf.NoID {
			return rel, nil
		}
	}
	if oIsConst {
		if oConst = dict.Lookup(pat.O); oConst == rdf.NoID {
			return rel, nil
		}
	}
	sameVar := pat.S.IsVar() && pat.O.IsVar() && pat.S.Value == pat.O.Value

	for pr := range pairs {
		if sIsConst && pr.S != sConst {
			continue
		}
		if oIsConst && pr.O != oConst {
			continue
		}
		if sameVar && pr.S != pr.O {
			continue
		}
		row := make([]rdf.ID, 0, 2)
		if pat.S.IsVar() {
			row = append(row, pr.S)
		}
		if pat.O.IsVar() && !sameVar {
			row = append(row, pr.O)
		}
		rel.Rows = append(rel.Rows, row)
	}
	// Path evaluation has set semantics; constant-only patterns may still
	// produce duplicate empty rows.
	if len(rel.Vars) == 0 && len(rel.Rows) > 1 {
		rel.Rows = rel.Rows[:1]
	}
	return rel.Distinct(), nil
}

// EvaluatePaths computes a query that mixes plain triple patterns and
// property-path patterns. inputs aligns with q.Patterns and pathInputs
// with q.Paths.
func EvaluatePaths(q *sparql.Query, inputs []PatternInput, pathInputs []PathInput, dict Dict, opts Options) (*Relation, *Stats, error) {
	if len(inputs) != len(q.Patterns) || len(pathInputs) != len(q.Paths) {
		return nil, nil, fmt.Errorf("engine: %d/%d inputs for %d patterns + %d paths",
			len(inputs), len(pathInputs), len(q.Patterns), len(q.Paths))
	}
	stats := &Stats{}
	rels := make([]*Relation, 0, len(inputs)+len(pathInputs))
	for _, in := range inputs {
		stats.InputRows += int64(in.TotalRows())
		rel, err := BuildRelation(in, dict)
		if err != nil {
			return nil, nil, err
		}
		rels = append(rels, rel)
	}
	for _, in := range pathInputs {
		stats.InputRows += int64(in.TotalRows())
		rel, err := BuildPathRelation(in, dict)
		if err != nil {
			return nil, nil, err
		}
		rels = append(rels, rel)
	}

	result, err := joinAll(rels, opts, stats)
	if err != nil {
		return nil, nil, err
	}
	// FILTER expressions apply to the joined solution before projection,
	// so they may reference variables the projection drops.
	result = applyFilters(result, q.Filters, dict)
	proj := q.Projection()
	if len(proj) > 0 {
		result, err = result.Project(proj)
		if err != nil {
			return nil, nil, err
		}
	}
	if q.Distinct {
		result = result.Distinct()
	}
	result = result.Limit(q.Limit)
	stats.OutputRows = int64(result.Card())
	return result, stats, nil
}

// PathInputsFromGraph builds whole-graph path inputs (no pruning) — the
// reference evaluation used by tests and workload generation.
func PathInputsFromGraph(g *rdf.Graph, q *sparql.Query) []PathInput {
	byProp := make(map[rdf.ID][]rdf.SOPair)
	for _, t := range g.Triples {
		byProp[t.P] = append(byProp[t.P], rdf.SOPair{S: t.S, O: t.O})
	}
	out := make([]PathInput, len(q.Paths))
	for i, pat := range q.Paths {
		in := PathInput{Pattern: pat}
		seen := make(map[rdf.ID]bool)
		for _, iri := range pat.Path.IRIs(nil) {
			id := g.Dict.Lookup(iri)
			if id == rdf.NoID || seen[id] {
				continue
			}
			seen[id] = true
			in.Groups = append(in.Groups, PropGroup{Prop: id, Rows: rdf.RawPairs(byProp[id])})
		}
		out[i] = in
	}
	return out
}
