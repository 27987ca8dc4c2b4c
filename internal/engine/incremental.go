package engine

import (
	"fmt"

	"ping/internal/obs"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// Incremental is a semi-naive progressive evaluator: instead of
// re-joining the full accumulated slice at every PQA step, it folds in
// only the newly loaded rows (the delta) and unions the result with the
// cached previous answers.
//
// Soundness rests on Lemma 4.3 (monotonicity): with per-pattern inputs
// A_i = O_i ∪ D_i (old rows ∪ this step's delta), the k-way join
// expands as
//
//	⋈_i A_i  =  ⋈_i O_i  ∪  ⋃_{j=1..k} (A_1 ⋈ … ⋈ A_{j-1} ⋈ D_j ⋈ O_{j+1} ⋈ … ⋈ O_k)
//
// The first term is the cached previous step; each delta term touches at
// least one new sub-partition and is skipped outright when D_j is empty.
// FILTER, projection, and DISTINCT all distribute over union, so the
// per-step answer *set* is identical to the from-scratch evaluation —
// only row order may differ. LIMIT N does not distribute over union; it
// caps the cumulative answer list instead: once N distinct answers are
// in, later steps append nothing, so every step's answers are a prefix
// of the next step's and a subset of the exact answer (Lemma 4.3).
//
// Triple-pattern deltas are exact by construction: hierarchy levels are
// disjoint and sub-partitions are per-property, so newly loaded groups
// contribute exactly the new relation rows. Property-path patterns are
// recomputed over their accumulated groups when they receive a delta
// (new edges can close paths through old edges), and the delta relation
// is the set difference against the previous path relation — monotone by
// Lemma 4.3, hence a true delta.
type Incremental struct {
	q    *sparql.Query
	dict Dict
	opts Options

	nPat int
	// full/old hold the per-pattern relations (triple patterns first,
	// then paths): full is the accumulated relation including the current
	// step's deltas, old the relation before them.
	full []*Relation
	old  []*Relation

	// pathGroups accumulates every loaded group per path pattern;
	// pathSeen is the row set of the previous path relation, used to
	// extract the delta after a recompute.
	pathGroups [][]PropGroup
	pathSeen   []*rowSet

	// answerSet holds the cumulative distinct answers, in the order
	// they were found.
	answerSet *rowSet
	proj      []string
}

// NewIncremental prepares a semi-naive evaluation of q. The error
// return is always nil.
func NewIncremental(q *sparql.Query, dict Dict, opts Options) (*Incremental, error) {
	k := len(q.Patterns) + len(q.Paths)
	inc := &Incremental{
		q:          q,
		dict:       dict,
		opts:       opts,
		nPat:       len(q.Patterns),
		full:       make([]*Relation, k),
		old:        make([]*Relation, k),
		pathGroups: make([][]PropGroup, len(q.Paths)),
		pathSeen:   make([]*rowSet, len(q.Paths)),
		proj:       q.Projection(),
		answerSet:  newRowSet(0),
	}
	for i, pat := range q.Patterns {
		inc.full[i] = &Relation{Vars: pat.Vars()}
	}
	for j, pat := range q.Paths {
		inc.full[inc.nPat+j] = &Relation{Vars: pat.Vars()}
		inc.pathSeen[j] = newRowSet(0)
	}
	return inc, nil
}

// Answers returns the cumulative distinct answer relation as a stable
// snapshot (appending further steps does not mutate it).
func (inc *Incremental) Answers() *Relation {
	rows := inc.answerSet.rows
	return &Relation{Vars: inc.proj, Rows: rows[:len(rows):len(rows)]}
}

// Snapshot returns stable copies of the evaluator's accumulated state at
// a step boundary: the per-pattern relations (triple patterns first,
// then paths, in NewIncremental's layout) and the cumulative distinct
// answers. The copies share row storage with the evaluator through
// capped slices, so taking a snapshot per step is cheap and later steps
// cannot mutate it.
func (inc *Incremental) Snapshot() (rels []*Relation, answers *Relation) {
	rels = make([]*Relation, len(inc.full))
	for i, r := range inc.full {
		rels[i] = &Relation{Vars: r.Vars, Rows: r.Rows[:len(r.Rows):len(r.Rows)]}
	}
	return rels, inc.Answers()
}

// Restore primes a freshly constructed evaluator with a Snapshot taken
// at a step boundary, plus the accumulated groups of every path pattern
// (a path recomputes over all of its groups when a delta arrives, so the
// groups — not just the materialized relation — must survive
// hibernation). Subsequent Steps behave exactly as if this evaluator had
// processed the original steps itself: the per-pattern full relations,
// path seen-sets, and answer set all continue from the restored state,
// so the delta expansion of the package comment still enumerates every
// new join result and the answer *set* matches an uninterrupted run.
func (inc *Incremental) Restore(rels []*Relation, pathGroups [][]PropGroup, answers *Relation) error {
	if len(rels) != len(inc.full) {
		return fmt.Errorf("engine: restore with %d relations, want %d", len(rels), len(inc.full))
	}
	if len(pathGroups) != len(inc.pathGroups) {
		return fmt.Errorf("engine: restore with %d path group lists, want %d", len(pathGroups), len(inc.pathGroups))
	}
	for i, r := range rels {
		if r == nil {
			return fmt.Errorf("engine: restore relation %d is nil", i)
		}
		if !sameVars(r.Vars, inc.full[i].Vars) {
			return fmt.Errorf("engine: restore relation %d has vars %v, want %v", i, r.Vars, inc.full[i].Vars)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Vars) {
				return fmt.Errorf("engine: restore relation %d has a row of width %d, want %d", i, len(row), len(r.Vars))
			}
		}
		inc.full[i] = &Relation{Vars: inc.full[i].Vars, Rows: r.Rows[:len(r.Rows):len(r.Rows)]}
	}
	for j := range inc.pathGroups {
		inc.pathGroups[j] = append([]PropGroup(nil), pathGroups[j]...)
		seen := newRowSet(len(rels[inc.nPat+j].Rows))
		for _, row := range rels[inc.nPat+j].Rows {
			seen.add(row)
		}
		inc.pathSeen[j] = seen
	}
	if answers == nil {
		answers = &Relation{Vars: inc.proj}
	}
	for _, row := range answers.Rows {
		if len(row) != len(inc.proj) {
			return fmt.Errorf("engine: restore answer row of width %d, want %d", len(row), len(inc.proj))
		}
	}
	set := newRowSet(len(answers.Rows))
	for _, row := range answers.Rows {
		set.add(row)
	}
	inc.answerSet = set
	return nil
}

func sameVars(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Step folds one batch of newly loaded groups into the evaluation.
// patDeltas aligns with q.Patterns and pathDeltas with q.Paths; an empty
// group list means the pattern saw no new data this step. It returns the
// cumulative answer snapshot plus the stats of the work done by this
// step. span, when non-nil, receives the per-join child spans.
func (inc *Incremental) Step(patDeltas, pathDeltas [][]PropGroup, span *obs.Span) (*Relation, *Stats, error) {
	if len(patDeltas) != len(inc.q.Patterns) || len(pathDeltas) != len(inc.q.Paths) {
		return nil, nil, fmt.Errorf("engine: %d/%d deltas for %d patterns + %d paths",
			len(patDeltas), len(pathDeltas), len(inc.q.Patterns), len(inc.q.Paths))
	}
	stats := &Stats{}
	k := len(inc.full)
	deltas := make([]*Relation, k)

	// Snapshot the pre-step relations, then extend them with the deltas.
	for i := range inc.full {
		rows := inc.full[i].Rows
		inc.old[i] = &Relation{Vars: inc.full[i].Vars, Rows: rows[:len(rows):len(rows)]}
	}
	for i, groups := range patDeltas {
		if len(groups) == 0 {
			continue
		}
		d, err := BuildRelation(PatternInput{Pattern: inc.q.Patterns[i], Groups: groups}, inc.dict)
		if err != nil {
			return nil, nil, err
		}
		deltas[i] = d
		switch {
		case len(inc.full[i].Rows) == 0:
			// The delta's rows are fresh and read-only from here on, so
			// the first one becomes the accumulated relation uncopied.
			inc.full[i].Rows = d.Rows
		case d.Card() > 0:
			// Appending in place is safe: old[i] snapshots the previous
			// rows with a capped slice, so growth cannot alias it.
			inc.full[i].Rows = append(inc.full[i].Rows, d.Rows...)
		}
	}
	for j, groups := range pathDeltas {
		if len(groups) == 0 {
			continue
		}
		inc.pathGroups[j] = append(inc.pathGroups[j], groups...)
		rel, err := BuildPathRelation(PathInput{Pattern: inc.q.Paths[j], Groups: inc.pathGroups[j]}, inc.dict)
		if err != nil {
			return nil, nil, err
		}
		// The recomputed relation is a superset of the previous one
		// (monotonicity); its fresh rows are the delta.
		d := &Relation{Vars: rel.Vars}
		for _, row := range rel.Rows {
			if inc.pathSeen[j].add(row) {
				d.Rows = append(d.Rows, row)
			}
		}
		if d.Card() > 0 {
			deltas[inc.nPat+j] = d
			inc.full[inc.nPat+j] = rel
		}
	}

	// One term per pattern with a non-empty delta: patterns before it see
	// the extended relations, the delta pattern only its new rows, and
	// patterns after it the pre-step relations.
	for j := 0; j < k && !inc.capped(); j++ {
		if deltas[j] == nil || deltas[j].Card() == 0 {
			continue
		}
		rels := make([]*Relation, 0, k)
		empty := false
		for i := 0; i < k; i++ {
			var r *Relation
			switch {
			case i < j:
				r = inc.full[i]
			case i == j:
				r = deltas[j]
			default:
				r = inc.old[i]
			}
			if r.Card() == 0 {
				empty = true
				break
			}
			rels = append(rels, r)
		}
		if empty {
			continue
		}
		termOpts := inc.opts
		termOpts.Span = span
		joined, err := joinAll(rels, termOpts, stats)
		if err != nil {
			return nil, nil, err
		}
		res := applyFilters(joined, inc.q.Filters, inc.dict)
		cols, err := res.columns(inc.proj)
		if err != nil {
			return nil, nil, err
		}
		if inc.answerSet.len() == 0 {
			// First answers: size the set once instead of growing it.
			n := len(res.Rows)
			if inc.q.Limit > 0 {
				n = min(n, inc.q.Limit)
			}
			inc.answerSet = newRowSet(n)
		}
		// Project each row into a scratch row, and copy only new answers
		// out, into arenas of at most 4096 rows.
		w := len(cols)
		scratch := make([]rdf.ID, w)
		var arena []rdf.ID
		for i, row := range res.Rows {
			if inc.capped() {
				break
			}
			for j, c := range cols {
				scratch[j] = row[c]
			}
			if inc.answerSet.has(scratch) {
				continue
			}
			if len(arena) < w {
				arena = make([]rdf.ID, min(4096, len(res.Rows)-i)*w)
			}
			ans := arena[:w:w]
			arena = arena[w:]
			copy(ans, scratch)
			inc.answerSet.add(ans)
		}
	}
	stats.OutputRows = int64(inc.answerSet.len())
	return inc.Answers(), stats, nil
}

// capped reports whether the answer list has reached the query's LIMIT.
func (inc *Incremental) capped() bool {
	return inc.q.Limit > 0 && inc.answerSet.len() >= inc.q.Limit
}
