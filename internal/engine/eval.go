package engine

import (
	"time"

	"ping/internal/dataflow"
	"ping/internal/obs"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// Stats reports what one evaluation touched and produced.
type Stats struct {
	// InputRows is the number of vertical-partition rows fed into the
	// pattern relations — the paper's "data access / loaded rows" metric.
	InputRows int64
	// IntermediateRows counts rows materialized by joins.
	IntermediateRows int64
	// OutputRows is the final result cardinality.
	OutputRows int64
	// Joins is the number of binary joins executed.
	Joins int
	// PeakRows is the largest relation cardinality seen while joining
	// (inputs or intermediates) — the memory high-water mark of the
	// evaluation, charged to the query's resource ledger.
	PeakRows int64
}

func (s *Stats) observePeak(card int) {
	if int64(card) > s.PeakRows {
		s.PeakRows = int64(card)
	}
}

// Options configures Evaluate.
type Options struct {
	// Context is not read by the engine, whose joins run on the calling
	// goroutine. It stays only because the benchmark harness still sets
	// it.
	Context *dataflow.Context
	// Metrics receives the join counters and timing histograms (nil:
	// obs.Default).
	Metrics *obs.Registry
	// Span, when non-nil, receives one child span per executed join with
	// input/output cardinalities — the engine layer of a query trace.
	Span *obs.Span
}

// Evaluate computes the BGP result from per-pattern inputs. inputs[i]
// corresponds to q.Patterns[i]. The join order is chosen greedily:
// start from the smallest relation and repeatedly join with the smallest
// relation sharing a variable, falling back to a cross product only when
// the pattern graph is disconnected.
func Evaluate(q *sparql.Query, inputs []PatternInput, dict Dict, opts Options) (*Relation, *Stats, error) {
	return EvaluatePaths(q, inputs, nil, dict, opts)
}

// joinAll reduces the relation list to one via greedy hash joins,
// recording per-join timings into the options' registry and one child
// span per join under the options' span.
func joinAll(rels []*Relation, opts Options, stats *Stats) (*Relation, error) {
	if len(rels) == 0 {
		return &Relation{}, nil
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default
	}
	reg.Describe("engine_joins_total", "binary joins executed")
	reg.Describe("engine_join_seconds", "wall-clock duration of one binary join")
	reg.Describe("engine_intermediate_rows_total", "rows materialized by joins")
	joinsC := reg.Counter("engine_joins_total", nil)
	joinSec := reg.Histogram("engine_join_seconds", obs.TimeBuckets, nil)
	interRows := reg.Counter("engine_intermediate_rows_total", nil)

	remaining := append([]*Relation(nil), rels...)
	// Start with the smallest relation.
	cur := popSmallest(&remaining, nil)
	stats.observePeak(cur.Card())
	for len(remaining) > 0 {
		next := popSmallest(&remaining, cur)
		stats.observePeak(next.Card())
		sp := opts.Span.StartChild("join")
		sp.SetAttr("left_rows", cur.Card())
		sp.SetAttr("right_rows", next.Card())
		t0 := time.Now()
		joined := join(cur, next)
		el := time.Since(t0)
		sp.SetAttr("out_rows", joined.Card())
		sp.End()
		joinsC.Inc()
		joinSec.Observe(el.Seconds())
		interRows.Add(int64(joined.Card()))
		stats.Joins++
		stats.IntermediateRows += int64(joined.Card())
		stats.observePeak(joined.Card())
		cur = joined
	}
	return cur, nil
}

// popSmallest removes and returns the smallest relation; when cur is
// non-nil it prefers relations sharing a variable with cur (to avoid
// cross products) and only falls back to an unconnected one when none
// shares.
func popSmallest(rels *[]*Relation, cur *Relation) *Relation {
	best, bestShared := -1, false
	for i, r := range *rels {
		shared := cur != nil && len(cur.sharedVars(r)) > 0
		switch {
		case best < 0:
			best, bestShared = i, shared
		case shared && !bestShared:
			best, bestShared = i, shared
		case shared == bestShared && r.Card() < (*rels)[best].Card():
			best = i
		}
	}
	r := (*rels)[best]
	*rels = append((*rels)[:best], (*rels)[best+1:]...)
	return r
}

// join computes the natural join of two relations with an in-memory
// hash join on the calling goroutine: a table over the smaller input,
// keyed by joinKey on the shared columns, probed with the other. A
// counting pass sizes the output exactly, so the rows are carved from
// one arena and the row index never grows. With no shared variables it
// degrades to a cross product.
func join(left, right *Relation) *Relation {
	outVars := append([]string(nil), left.Vars...)
	rightExtra := make([]int, 0, len(right.Vars))
	var lIdx, rIdx []int
	for i, v := range right.Vars {
		if j := left.varIndex(v); j >= 0 {
			lIdx = append(lIdx, j)
			rIdx = append(rIdx, i)
		} else {
			outVars = append(outVars, v)
			rightExtra = append(rightExtra, i)
		}
	}
	out := &Relation{Vars: outVars}
	lw, w := len(left.Vars), len(outVars)
	var arena []rdf.ID
	emit := func(lr, rr []rdf.ID) {
		row := arena[:w:w]
		arena = arena[w:]
		copy(row, lr)
		for j, i := range rightExtra {
			row[lw+j] = rr[i]
		}
		out.Rows = append(out.Rows, row)
	}
	alloc := func(n int) {
		out.Rows = make([][]rdf.ID, 0, n)
		arena = make([]rdf.ID, n*w)
	}

	if len(lIdx) == 0 {
		// Cross product (disconnected BGP).
		alloc(left.Card() * right.Card())
		for _, lr := range left.Rows {
			for _, rr := range right.Rows {
				emit(lr, rr)
			}
		}
		return out
	}

	// Keys over one or two 32-bit IDs pack exactly into a uint64; wider
	// keys are FNV-1a hashes, so every probe match must be verified
	// against the actual key columns to filter hash collisions.
	verify := len(lIdx) > 2
	build, probe, bIdx, pIdx := left, right, lIdx, rIdx
	if right.Card() < left.Card() {
		build, probe, bIdx, pIdx = right, left, rIdx, lIdx
	}
	t := newHashIndex(build.Card())
	for _, br := range build.Rows {
		t.add(joinKey(br, bIdx))
	}
	n := 0
	for _, pr := range probe.Rows {
		for b := t.first(joinKey(pr, pIdx)); b >= 0; b = t.next[b] {
			if !verify || rowsMatch(build.Rows[b], bIdx, pr, pIdx) {
				n++
			}
		}
	}
	if n == 0 {
		return out
	}
	alloc(n)
	for _, pr := range probe.Rows {
		for b := t.first(joinKey(pr, pIdx)); b >= 0; b = t.next[b] {
			br := build.Rows[b]
			switch {
			case verify && !rowsMatch(br, bIdx, pr, pIdx):
			case build == left:
				emit(br, pr)
			default:
				emit(pr, br)
			}
		}
	}
	return out
}

// InputsFromGraph builds per-pattern inputs directly from a graph's triple
// list — the whole-graph evaluation used by tests and by the oracle
// comparison path (no partitioning, no pruning).
func InputsFromGraph(g *rdf.Graph, q *sparql.Query) []PatternInput {
	byProp := make(map[rdf.ID][]rdf.SOPair)
	for _, t := range g.Triples {
		byProp[t.P] = append(byProp[t.P], rdf.SOPair{S: t.S, O: t.O})
	}
	inputs := make([]PatternInput, len(q.Patterns))
	for i, pat := range q.Patterns {
		in := PatternInput{Pattern: pat}
		if pat.P.IsConcrete() {
			if p := g.Dict.Lookup(pat.P); p != rdf.NoID {
				in.Groups = []PropGroup{{Prop: p, Rows: rdf.RawPairs(byProp[p])}}
			}
		} else {
			for p, rows := range byProp {
				in.Groups = append(in.Groups, PropGroup{Prop: p, Rows: rdf.RawPairs(rows)})
			}
		}
		inputs[i] = in
	}
	return inputs
}
