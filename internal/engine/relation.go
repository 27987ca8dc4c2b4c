// Package engine implements BGP evaluation for PING and its baselines: it
// turns per-pattern vertical-partition rows into relations, joins them
// with in-memory hash joins on the calling goroutine (greedy
// smallest-first join ordering, the same "perform small joins first"
// policy §5.6 credits to S2RDF), and projects the requested variables.
//
// A naive backtracking evaluator over a plain rdf.Graph is included as the
// correctness oracle for the paper's soundness/completeness claims
// (Lemmas 4.3–4.4, Theorem 4.5).
package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"ping/internal/rdf"
	"ping/internal/sparql"
)

// Dict is the term dictionary surface the engine needs: term→ID for
// constant filters and path IRIs, ID→term only for FILTER expression
// evaluation. Both *rdf.Dict and the per-epoch *rdf.DictView satisfy it;
// layouts hand the engine a DictView so evaluation is pinned to one
// dictionary epoch.
type Dict interface {
	Lookup(t rdf.Term) rdf.ID
	Term(id rdf.ID) rdf.Term
}

// Relation is a set of variable bindings in columnar-by-row form: Vars
// names the columns, each row holds one rdf.ID per column.
type Relation struct {
	Vars []string
	Rows [][]rdf.ID
}

// Card returns the number of rows.
func (r *Relation) Card() int { return len(r.Rows) }

// varIndex returns the column index of v, or -1.
func (r *Relation) varIndex(v string) int {
	for i, name := range r.Vars {
		if name == v {
			return i
		}
	}
	return -1
}

// sharedVars returns the variables common to both relations, in r's
// column order.
func (r *Relation) sharedVars(s *Relation) []string {
	var out []string
	for _, v := range r.Vars {
		if s.varIndex(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// Project returns a relation restricted to the named columns. Requesting a
// variable the relation does not bind is an error.
func (r *Relation) Project(vars []string) (*Relation, error) {
	idx, err := r.columns(vars)
	if err != nil {
		return nil, err
	}
	out := &Relation{Vars: append([]string(nil), vars...), Rows: make([][]rdf.ID, len(r.Rows))}
	for i, row := range r.Rows {
		nr := make([]rdf.ID, len(idx))
		for j, k := range idx {
			nr[j] = row[k]
		}
		out.Rows[i] = nr
	}
	return out, nil
}

// columns returns the column index of each named variable; a variable
// the relation does not bind is an error.
func (r *Relation) columns(vars []string) ([]int, error) {
	idx := make([]int, len(vars))
	for i, v := range vars {
		if idx[i] = r.varIndex(v); idx[i] < 0 {
			return nil, fmt.Errorf("engine: projection variable ?%s not bound by %v", v, r.Vars)
		}
	}
	return idx, nil
}

// Distinct returns the relation with duplicate rows removed, preserving
// first-occurrence order.
func (r *Relation) Distinct() *Relation {
	seen := newRowSet(len(r.Rows))
	for _, row := range r.Rows {
		seen.add(row)
	}
	return &Relation{Vars: r.Vars, Rows: seen.rows}
}

// Limit returns the first n rows (all rows if n <= 0).
func (r *Relation) Limit(n int) *Relation {
	if n <= 0 || n >= len(r.Rows) {
		return r
	}
	return &Relation{Vars: r.Vars, Rows: r.Rows[:n]}
}

// FNV-1a parameters. Row hashing inlines the FNV-1a loop (folding each
// 32-bit ID in little-endian byte order) instead of going through
// hash/fnv, which would allocate a hasher and a []byte conversion per
// row on the join and distinct hot paths.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashRow hashes every column of a row, allocation-free.
func hashRow(row []rdf.ID) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range row {
		h = (h ^ uint64(v&0xff)) * fnvPrime64
		h = (h ^ uint64((v>>8)&0xff)) * fnvPrime64
		h = (h ^ uint64((v>>16)&0xff)) * fnvPrime64
		h = (h ^ uint64(v>>24)) * fnvPrime64
	}
	return h
}

// hashRowCols hashes the selected columns of a row, allocation-free.
func hashRowCols(row []rdf.ID, idx []int) uint64 {
	h := uint64(fnvOffset64)
	for _, k := range idx {
		v := row[k]
		h = (h ^ uint64(v&0xff)) * fnvPrime64
		h = (h ^ uint64((v>>8)&0xff)) * fnvPrime64
		h = (h ^ uint64((v>>16)&0xff)) * fnvPrime64
		h = (h ^ uint64(v>>24)) * fnvPrime64
	}
	return h
}

// joinKey builds the uint64 join key over the given columns. Up to two
// 32-bit IDs pack exactly (no collisions possible); wider keys fall back
// to FNV-1a, and the join must then verify key-column equality on every
// probe (rowsMatch) to stay exact.
func joinKey(row []rdf.ID, idx []int) uint64 {
	switch len(idx) {
	case 0:
		return 0
	case 1:
		return uint64(row[idx[0]])
	case 2:
		return uint64(row[idx[0]])<<32 | uint64(row[idx[1]])
	default:
		return wideKey(row, idx)
	}
}

// wideKey hashes keys of three or more columns; tests swap in a
// colliding hash to exercise the join's verification.
var wideKey = hashRowCols

// rowsMatch reports whether two rows agree on the paired columns.
func rowsMatch(a []rdf.ID, aIdx []int, b []rdf.ID, bIdx []int) bool {
	for i := range aIdx {
		if a[aIdx[i]] != b[bIdx[i]] {
			return false
		}
	}
	return true
}

// rowsEqual reports whether two rows are identical.
func rowsEqual(a, b []rdf.ID) bool {
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

// hashIndex maps uint64 keys to the rows carrying them, rows being
// numbered in the order they were added: an open-addressing table of
// the distinct keys (load at most 1/2), each slot heading a chain of its
// rows through next, the last added first. It indexes a join's build
// side by join key and a rowSet's members by row hash.
type hashIndex struct {
	keys  []uint64
	heads []int32 // per slot: row + 1 of the chain's first row; 0: empty
	next  []int32 // per row: the chain's next row, or -1
	used  int     // occupied slots
	shift uint
}

// newHashIndex returns an index that holds n rows without growing.
func newHashIndex(n int) *hashIndex {
	t := &hashIndex{next: make([]int32, 0, n)}
	t.resize(2 * n)
	return t
}

// resize rebuilds the table with at least n slots (a power of two);
// the chains move with their slots.
func (t *hashIndex) resize(n int) {
	size := 8
	for size < n {
		size <<= 1
	}
	keys, heads := t.keys, t.heads
	t.keys, t.heads = make([]uint64, size), make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, h := range heads {
		if h != 0 {
			s := t.slot(keys[i])
			t.keys[s], t.heads[s] = keys[i], h
		}
	}
}

// slot returns the slot holding key k, or the empty slot where it
// belongs (Fibonacci hashing, linear probing).
func (t *hashIndex) slot(k uint64) int {
	mask := len(t.keys) - 1
	s := int((k * 0x9E3779B97F4A7C15) >> t.shift)
	for t.heads[s] != 0 && t.keys[s] != k {
		s = (s + 1) & mask
	}
	return s
}

// add indexes the next row under key k.
func (t *hashIndex) add(k uint64) {
	s := t.slot(k)
	if t.heads[s] == 0 {
		if 2*(t.used+1) > len(t.keys) {
			t.resize(2 * len(t.keys))
			s = t.slot(k)
		}
		t.keys[s] = k
		t.used++
	}
	t.next = append(t.next, t.heads[s]-1)
	t.heads[s] = int32(len(t.next))
}

// first returns the last row added under key k, or -1; next[row]
// continues the chain.
func (t *hashIndex) first(k uint64) int32 { return t.heads[t.slot(k)] - 1 }

// rowSet is a set of rows, its members in insertion order and indexed
// by FNV-1a hash. Membership is exact — a hash match is confirmed by
// full-row equality — and adding a row allocates only when the member
// list or the index grows.
type rowSet struct {
	rows  [][]rdf.ID
	index *hashIndex
}

func newRowSet(capacity int) *rowSet {
	return &rowSet{rows: make([][]rdf.ID, 0, capacity), index: newHashIndex(capacity)}
}

// find reports whether the set holds row, whose hash is h.
func (s *rowSet) find(row []rdf.ID, h uint64) bool {
	for i := s.index.first(h); i >= 0; i = s.index.next[i] {
		if rowsEqual(s.rows[i], row) {
			return true
		}
	}
	return false
}

// add inserts the row and reports whether it was absent before.
func (s *rowSet) add(row []rdf.ID) bool {
	h := hashRow(row)
	if s.find(row, h) {
		return false
	}
	s.rows = append(s.rows, row)
	s.index.add(h)
	return true
}

// has reports membership without inserting.
func (s *rowSet) has(row []rdf.ID) bool { return s.find(row, hashRow(row)) }

func (s *rowSet) len() int { return len(s.rows) }

// Sorted returns the rows sorted lexicographically; used by tests to
// compare result sets deterministically.
func (r *Relation) Sorted() [][]rdf.ID {
	rows := append([][]rdf.ID(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	return rows
}

// String renders a compact description for debugging.
func (r *Relation) String() string {
	return fmt.Sprintf("Relation(?%s, %d rows)", strings.Join(r.Vars, ", ?"), len(r.Rows))
}

// applyFilters keeps the rows satisfying every FILTER expression. A
// filter referencing a variable the relation does not bind eliminates the
// row (SPARQL's unbound-is-error semantics).
func applyFilters(r *Relation, filters []sparql.Expr, dict Dict) *Relation {
	if len(filters) == 0 {
		return r
	}
	out := &Relation{Vars: r.Vars, Rows: make([][]rdf.ID, 0, len(r.Rows))}
	colOf := make(map[string]int, len(r.Vars))
	for i, v := range r.Vars {
		colOf[v] = i
	}
	for _, row := range r.Rows {
		lookup := func(name string) (rdf.Term, bool) {
			if i, ok := colOf[name]; ok {
				return dict.Term(row[i]), true
			}
			return rdf.Term{}, false
		}
		keep := true
		for _, f := range filters {
			if !f.Eval(lookup) {
				keep = false
				break
			}
		}
		if keep {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// BindingMaps converts the relation to the map form used by the oracle
// and by user-facing result printing.
func (r *Relation) BindingMaps() []map[string]rdf.ID {
	out := make([]map[string]rdf.ID, len(r.Rows))
	for i, row := range r.Rows {
		m := make(map[string]rdf.ID, len(r.Vars))
		for j, v := range r.Vars {
			m[v] = row[j]
		}
		out[i] = m
	}
	return out
}

// PropGroup is the slice of a pattern's input rows contributed by one
// property's vertical partition. Rows is a PairBlock: resident groups stay
// in their compressed form and are only streamed (never re-materialized)
// when the pattern relation is built.
type PropGroup struct {
	Prop rdf.ID
	Rows rdf.PairBlock
}

// PatternInput feeds one triple pattern: the pattern itself plus its rows,
// grouped by the property file they came from (one group for constant-
// predicate patterns, several for variable predicates).
type PatternInput struct {
	Pattern sparql.TriplePattern
	Groups  []PropGroup
}

// TotalRows returns the number of input rows across groups — the
// "data access" contribution of the pattern.
func (in PatternInput) TotalRows() int {
	n := 0
	for _, g := range in.Groups {
		n += g.Rows.Len()
	}
	return n
}

// BuildRelation turns a pattern's input rows into a relation over the
// pattern's variables, applying constant filters (on subject/object) and
// repeated-variable equality (e.g. ?x :p ?x).
//
// The pattern is resolved once — each position's row column or
// constant ID, and which positions a repeated variable ties together —
// so the per-row loop is a few integer tests over pairs decoded in
// batches into one reused buffer.
func BuildRelation(in PatternInput, dict Dict) (*Relation, error) {
	pat := in.Pattern
	vars := pat.Vars()
	rel := &Relation{Vars: vars}

	// Position i of (S, P, O) binds row column col[i], or is the
	// constant id[i] when col[i] < 0.
	var col [3]int
	var id [3]rdf.ID
	for i, term := range [3]rdf.Term{pat.S, pat.P, pat.O} {
		if term.IsVar() {
			col[i] = slices.Index(vars, term.Value)
			continue
		}
		col[i] = -1
		if id[i] = dict.Lookup(term); id[i] == rdf.NoID {
			// A constant absent from the dictionary cannot match anything.
			return rel, nil
		}
	}
	sCol, pCol, oCol := col[0], col[1], col[2]
	sConst, oConst := sCol < 0, oCol < 0
	// A variable repeated across positions must bind one value.
	sEqP := sCol >= 0 && sCol == pCol
	sEqO := sCol >= 0 && sCol == oCol
	pEqO := pCol >= 0 && pCol == oCol

	total := 0
	for _, g := range in.Groups {
		if pCol >= 0 || g.Prop == id[1] {
			total += g.Rows.Len()
		}
	}
	if total == 0 {
		return rel, nil
	}
	// The row index is sized for every pair: growing it copies every
	// row pointer so far, which costs more than the unused tail of a
	// filtered pattern's index. Row storage is carved from arenas of at
	// most 4096 rows and never more than the pairs still to come; a
	// pattern with a constant or a repeated variable may keep few of its
	// pairs, so its arenas grow with the rows it keeps.
	filtered := sConst || oConst || sEqP || sEqO || pEqO
	rel.Rows = make([][]rdf.ID, 0, total)
	nv := len(vars)
	var arena []rdf.ID
	left := total
	var buf [256]rdf.SOPair
	for _, g := range in.Groups {
		if pCol < 0 && g.Prop != id[1] {
			continue
		}
		prop := g.Prop
		g.Rows.ForEachBatch(buf[:], func(pairs []rdf.SOPair) {
			for _, pr := range pairs {
				left--
				switch {
				case sConst && pr.S != id[0], oConst && pr.O != id[2],
					sEqO && pr.S != pr.O, sEqP && pr.S != prop, pEqO && prop != pr.O:
					continue
				}
				if len(arena) < nv {
					chunk := min(4096, left+1)
					if filtered {
						chunk = min(chunk, max(64, len(rel.Rows)))
					}
					arena = make([]rdf.ID, chunk*nv)
				}
				row := arena[:nv:nv]
				arena = arena[nv:]
				if sCol >= 0 {
					row[sCol] = pr.S
				}
				if pCol >= 0 {
					row[pCol] = prop
				}
				if oCol >= 0 {
					row[oCol] = pr.O
				}
				rel.Rows = append(rel.Rows, row)
			}
		})
	}
	// A filtered pattern that kept few rows gives back its index, which
	// the relation would otherwise pin for the rest of the query.
	if len(rel.Rows) < cap(rel.Rows)/2 {
		rel.Rows = slices.Clip(append([][]rdf.ID(nil), rel.Rows...))
	}
	return rel, nil
}
