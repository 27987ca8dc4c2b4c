// Package worq reimplements the WORQ baseline (Madkour et al., ISWC'18)
// used in the paper's exact-query-answering comparison (§5.6):
// workload-driven reductions of vertically-partitioned RDF data, computed
// with Bloom filters. For each join pattern appearing in the workload
// (e.g. p1.subject = p2.subject) WORQ materializes the rows of VP_p1 whose
// join value *may* occur on the other side, according to the other side's
// Bloom filter. Reductions are cached: the first query pays the full VP
// scan, subsequent queries with the same join pattern read only the
// reduction. Bloom filters admit false positives, so reductions may carry
// extra rows; the exact join removes them, preserving correctness.
//
// Storage uses dictionary/RLE-compressed columns (WORQ's dictionary
// compression), giving the small reduction factors of Fig. 7.
package worq

import (
	"fmt"
	"sort"
	"time"

	"ping/internal/bloom"
	"ping/internal/columnar"
	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// Side distinguishes the subject and object columns of a VP table.
type Side uint8

const (
	// Sub is the subject column.
	Sub Side = iota
	// Obj is the object column.
	Obj
)

func (s Side) String() string {
	if s == Sub {
		return "s"
	}
	return "o"
}

// joinSig identifies one cached reduction: rows of P1 whose Side1 value
// passes the Bloom filter of P2's Side2 column.
type joinSig struct {
	P1    rdf.ID
	Side1 Side
	P2    rdf.ID
	Side2 Side
}

func (j joinSig) path() string {
	return fmt.Sprintf("worq/red/p%d%s_p%d%s.pcol", j.P1, j.Side1, j.P2, j.Side2)
}

// Options configures preprocessing.
type Options struct {
	// FS is the destination file system (nil: fresh in-memory).
	FS *dfs.FS
	// Workload seeds the reduction cache: join patterns mined from these
	// queries are materialized during preprocessing. Queries outside the
	// workload still run — their reductions are computed and cached on
	// first use (WORQ's adaptive mode).
	Workload []*sparql.Query
	// FalsePositiveRate for the Bloom filters (default 0.01).
	FalsePositiveRate float64
	// DisableReductionCache makes every query recompute its Bloom
	// reductions from the base VP tables instead of reading cached
	// reduction files. This is the paper's §5.3 fairness configuration
	// ("we disabled caching of precomputed joins"): data access equals
	// the full vertical partitions and the filters only shrink the join
	// inputs.
	DisableReductionCache bool
}

// Store is a preprocessed WORQ dataset.
type Store struct {
	dict *rdf.Dict
	fs   *dfs.FS

	vpRows  map[rdf.ID]int
	blooms  map[rdf.ID][2]*bloom.Filter // per property: [Sub, Obj] filters
	redRows map[joinSig]int
	fpRate  float64
	noCache bool

	preprocessTime time.Duration
	storedBytes    int64
}

// Preprocess builds compressed VP tables, Bloom filters, and the
// workload's reductions.
func Preprocess(g *rdf.Graph, opts Options) (*Store, error) {
	start := time.Now()
	fs := opts.FS
	if fs == nil {
		fs = dfs.New(dfs.Config{})
	}
	fp := opts.FalsePositiveRate
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	st := &Store{
		dict:    g.Dict,
		fs:      fs,
		vpRows:  make(map[rdf.ID]int),
		blooms:  make(map[rdf.ID][2]*bloom.Filter),
		redRows: make(map[joinSig]int),
		fpRate:  fp,
		noCache: opts.DisableReductionCache,
	}

	vp := make(map[rdf.ID][]rdf.SOPair)
	for _, t := range g.Triples {
		vp[t.P] = append(vp[t.P], rdf.SOPair{S: t.S, O: t.O})
	}
	props := make([]rdf.ID, 0, len(vp))
	for p := range vp {
		props = append(props, p)
	}
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })

	for _, p := range props {
		rows := vp[p]
		n, err := st.writePairs(vpPath(p), rows)
		if err != nil {
			return nil, err
		}
		st.storedBytes += n
		st.vpRows[p] = len(rows)

		sf := bloom.NewWithEstimates(uint64(len(rows)), fp)
		of := bloom.NewWithEstimates(uint64(len(rows)), fp)
		for _, r := range rows {
			sf.Add(uint64(r.S))
			of.Add(uint64(r.O))
		}
		st.blooms[p] = [2]*bloom.Filter{sf, of}
		st.storedBytes += sf.SizeBytes() + of.SizeBytes()
	}

	// Materialize the workload's reductions.
	for _, q := range opts.Workload {
		for _, sig := range mineJoinSigs(q, st.dict) {
			if _, done := st.redRows[sig]; done {
				continue
			}
			if _, err := st.materialize(sig, vp[sig.P1]); err != nil {
				return nil, err
			}
		}
	}
	st.preprocessTime = time.Since(start)
	return st, nil
}

func vpPath(p rdf.ID) string { return fmt.Sprintf("worq/vp/p%d.pcol", p) }

// minePatternSigs extracts, for each pattern of the BGP, the join
// signatures that may reduce *that pattern's* table: one per other pattern
// sharing a variable with it. Keeping signatures per pattern matters for
// correctness — when the same property occurs in two patterns with
// different join partners, each occurrence may only be reduced by its own
// partners.
func minePatternSigs(q *sparql.Query, dict *rdf.Dict) [][]joinSig {
	type boundPat struct {
		p    rdf.ID
		ok   bool
		s, o string // variable names, "" if constant
	}
	pats := make([]boundPat, len(q.Patterns))
	for i, pat := range q.Patterns {
		if !pat.P.IsConcrete() {
			continue
		}
		id := dict.Lookup(pat.P)
		if id == rdf.NoID {
			continue
		}
		pats[i] = boundPat{p: id, ok: true}
		if pat.S.IsVar() {
			pats[i].s = pat.S.Value
		}
		if pat.O.IsVar() {
			pats[i].o = pat.O.Value
		}
	}
	out := make([][]joinSig, len(q.Patterns))
	for i, a := range pats {
		if !a.ok {
			continue
		}
		for j, b := range pats {
			if i == j || !b.ok {
				continue
			}
			if a.s != "" && a.s == b.s {
				out[i] = append(out[i], joinSig{a.p, Sub, b.p, Sub})
			}
			if a.s != "" && a.s == b.o {
				out[i] = append(out[i], joinSig{a.p, Sub, b.p, Obj})
			}
			if a.o != "" && a.o == b.s {
				out[i] = append(out[i], joinSig{a.p, Obj, b.p, Sub})
			}
			if a.o != "" && a.o == b.o {
				out[i] = append(out[i], joinSig{a.p, Obj, b.p, Obj})
			}
		}
	}
	return out
}

// mineJoinSigs flattens minePatternSigs; used to seed the cache from a
// workload.
func mineJoinSigs(q *sparql.Query, dict *rdf.Dict) []joinSig {
	var sigs []joinSig
	for _, ps := range minePatternSigs(q, dict) {
		sigs = append(sigs, ps...)
	}
	return sigs
}

// materialize computes and stores one reduction from in-memory VP rows.
func (st *Store) materialize(sig joinSig, base []rdf.SOPair) (int, error) {
	filter := st.blooms[sig.P2][sig.Side2]
	if filter == nil {
		return 0, fmt.Errorf("worq: no bloom filter for property %d", sig.P2)
	}
	var reduced []rdf.SOPair
	for _, r := range base {
		v := r.S
		if sig.Side1 == Obj {
			v = r.O
		}
		if filter.Contains(uint64(v)) {
			reduced = append(reduced, r)
		}
	}
	n, err := st.writePairs(sig.path(), reduced)
	if err != nil {
		return 0, err
	}
	st.storedBytes += n
	st.redRows[sig] = len(reduced)
	return len(reduced), nil
}

func (st *Store) writePairs(path string, rows []rdf.SOPair) (int64, error) {
	scol := make([]uint32, len(rows))
	ocol := make([]uint32, len(rows))
	for i, r := range rows {
		scol[i] = r.S
		ocol[i] = r.O
	}
	w, err := st.fs.Create(path)
	if err != nil {
		return 0, fmt.Errorf("worq: %w", err)
	}
	// Auto encoding: dictionary/RLE wherever it wins — WORQ's dictionary
	// compression policy.
	n, err := columnar.WriteColumns(w, [][]uint32{scol, ocol}, columnar.Auto)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("worq: write %s: %w", path, err)
	}
	return n, nil
}

func (st *Store) readPairs(path string) ([]rdf.SOPair, error) {
	r, err := st.fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("worq: %w", err)
	}
	defer r.Close()
	cols, err := columnar.ReadColumns(r)
	if err != nil {
		return nil, fmt.Errorf("worq: read %s: %w", path, err)
	}
	if len(cols) != 2 || len(cols[0]) != len(cols[1]) {
		return nil, fmt.Errorf("worq: %s: malformed table", path)
	}
	rows := make([]rdf.SOPair, len(cols[0]))
	for i := range rows {
		rows[i] = rdf.SOPair{S: cols[0][i], O: cols[1][i]}
	}
	return rows, nil
}

// Name identifies the system in harness reports.
func (st *Store) Name() string { return "WORQ" }

// PreprocessTime returns the wall-clock preprocessing duration.
func (st *Store) PreprocessTime() time.Duration { return st.preprocessTime }

// StoredBytes returns the size of VP tables, Bloom filters, and cached
// reductions.
func (st *Store) StoredBytes() int64 { return st.storedBytes }

// CachedReductions returns how many reductions are materialized.
func (st *Store) CachedReductions() int { return len(st.redRows) }

// Query evaluates a BGP. Each pattern uses its smallest cached reduction
// when one matches a join in the query; otherwise it reads the full VP
// table, computes the reduction, and caches it for the next query.
func (st *Store) Query(q *sparql.Query) (*engine.Relation, *engine.Stats, error) {
	if len(q.Patterns) == 0 {
		return nil, nil, fmt.Errorf("worq: query has no patterns")
	}
	patSigs := minePatternSigs(q, st.dict)

	var extraLoaded int64 // VP rows read to build missing reductions
	inputs := make([]engine.PatternInput, len(q.Patterns))
	for i, pat := range q.Patterns {
		in := engine.PatternInput{Pattern: pat}
		if pat.P.IsConcrete() {
			p := st.dict.Lookup(pat.P)
			if p != rdf.NoID {
				if _, exists := st.vpRows[p]; exists {
					rows, loaded, err := st.patternRows(p, patSigs[i])
					if err != nil {
						return nil, nil, err
					}
					extraLoaded += loaded
					in.Groups = []engine.PropGroup{{Prop: p, Rows: rdf.RawPairs(rows)}}
				}
			}
		} else {
			for p := range st.vpRows {
				rows, err := st.readPairs(vpPath(p))
				if err != nil {
					return nil, nil, err
				}
				in.Groups = append(in.Groups, engine.PropGroup{Prop: p, Rows: rdf.RawPairs(rows)})
			}
		}
		inputs[i] = in
	}
	rel, stats, err := engine.Evaluate(q, inputs, st.dict, engine.Options{})
	if err != nil {
		return nil, nil, err
	}
	stats.InputRows += extraLoaded
	return rel, stats, nil
}

// patternRows returns the rows for one constant-predicate pattern: the
// smallest applicable cached reduction, or the VP table (building and
// caching reductions on the way). The second return value counts extra
// rows read beyond the returned ones (cache misses).
func (st *Store) patternRows(p rdf.ID, sigs []joinSig) ([]rdf.SOPair, int64, error) {
	if st.noCache {
		// §5.3 fairness mode: always scan the base table, reduce in
		// memory with the Bloom filters, never persist.
		base, err := st.readPairs(vpPath(p))
		if err != nil {
			return nil, 0, err
		}
		reduced := base
		for _, sig := range sigs {
			filter := st.blooms[sig.P2][sig.Side2]
			if filter == nil {
				continue
			}
			kept := reduced[:0:0]
			for _, r := range reduced {
				v := r.S
				if sig.Side1 == Obj {
					v = r.O
				}
				if filter.Contains(uint64(v)) {
					kept = append(kept, r)
				}
			}
			reduced = kept
		}
		return reduced, int64(len(base) - len(reduced)), nil
	}
	// Any missing reduction forces a base-table scan (and caches the
	// reduction for next time).
	var missing []joinSig
	for _, sig := range sigs {
		if _, ok := st.redRows[sig]; !ok {
			missing = append(missing, sig)
		}
	}
	scannedBase := int64(0)
	if len(missing) > 0 {
		base, err := st.readPairs(vpPath(p))
		if err != nil {
			return nil, 0, err
		}
		scannedBase = int64(len(base))
		for _, sig := range missing {
			if _, err := st.materialize(sig, base); err != nil {
				return nil, 0, err
			}
		}
	}
	// All reductions for this pattern are now cached; use the smallest
	// source (a reduction or the plain VP table).
	bestPath, bestRows := vpPath(p), st.vpRows[p]
	for _, sig := range sigs {
		if n := st.redRows[sig]; n < bestRows {
			bestPath, bestRows = sig.path(), n
		}
	}
	rows, err := st.readPairs(bestPath)
	if err != nil {
		return nil, 0, err
	}
	// Extra access beyond the returned rows: the base scan on cache miss.
	extra := scannedBase - int64(len(rows))
	if extra < 0 {
		extra = 0
	}
	return rows, extra, nil
}
