package hpart

import (
	"fmt"
	"sort"
	"time"

	"ping/internal/columnar"
	"ping/internal/cs"
	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/rdf"
)

// PartitionDistributed runs Algorithm 1 as a dataflow job, the way the
// paper's partitioner runs on Spark: characteristic sets are extracted
// with a shuffle-by-subject, the (small) CS hierarchy is built on the
// "driver", levels are attached to triples with a distributed join, and
// sub-partitions plus indexes are produced by keyed reductions. The
// resulting layout is equivalent to the sequential Partition — the
// equivalence is property-tested — while every heavy pass runs
// partition-parallel on the simulated cluster.
func PartitionDistributed(g *rdf.Graph, ctx *dataflow.Context, opts Options) (*Layout, error) {
	if ctx == nil {
		ctx = dataflow.NewContext(1)
	}
	start := time.Now()
	fs := opts.FS
	if fs == nil {
		fs = dfs.New(dfs.Config{})
	}

	idHash := func(k rdf.ID) uint64 { return uint64(k) }
	triples := dataflow.Parallelize(ctx, g.Triples, 0)

	// Stage 1 — extract each subject's characteristic set: shuffle the
	// (subject, property) pairs so a subject's properties are colocated,
	// then fold them into sorted sets.
	subjProps := dataflow.ReduceByKey(
		dataflow.Map(triples, func(t rdf.Triple) dataflow.Pair[rdf.ID, []rdf.ID] {
			return dataflow.Pair[rdf.ID, []rdf.ID]{Key: t.S, Value: []rdf.ID{t.P}}
		}),
		0, idHash,
		func(a, b []rdf.ID) []rdf.ID { return append(a, b...) },
	)
	subjCS := dataflow.Map(subjProps, func(p dataflow.Pair[rdf.ID, []rdf.ID]) dataflow.Pair[rdf.ID, cs.Set] {
		return dataflow.Pair[rdf.ID, cs.Set]{Key: p.Key, Value: cs.NewSet(p.Value)}
	})

	// Stage 2 — the driver builds the hierarchy from the distinct CSs
	// (a few hundred sets at most; this is the part Spark would collect).
	distinct := make(map[string]cs.Set)
	for _, p := range subjCS.Collect() {
		distinct[p.Value.Key()] = p.Value
	}
	sets := make([]cs.Set, 0, len(distinct))
	for _, s := range distinct {
		sets = append(sets, s)
	}
	h := cs.BuildFromSets(sets)
	if h.MaxLevel() > MaxLevels {
		return nil, fmt.Errorf("hpart: hierarchy depth %d exceeds supported %d", h.MaxLevel(), MaxLevels)
	}
	levelByKey := make(map[string]int, len(distinct))
	for key, s := range distinct {
		levelByKey[key] = h.LevelOf(s)
	}

	// Stage 3 — attach each subject's level and join it onto the triples
	// (a broadcast of the level map would also work; the join exercises
	// the shuffle path the way a real cluster would for huge subject
	// sets).
	subjLevel := dataflow.Map(subjCS, func(p dataflow.Pair[rdf.ID, cs.Set]) dataflow.Pair[rdf.ID, int] {
		return dataflow.Pair[rdf.ID, int]{Key: p.Key, Value: levelByKey[p.Value.Key()]}
	})
	keyedTriples := dataflow.Map(triples, func(t rdf.Triple) dataflow.Pair[rdf.ID, rdf.Triple] {
		return dataflow.Pair[rdf.ID, rdf.Triple]{Key: t.S, Value: t}
	})
	leveled := dataflow.JoinByKey(keyedTriples, subjLevel, 0, idHash)

	// Stage 4 — regroup by (level, property) into sub-partitions.
	type keyed struct {
		Level int
		Prop  rdf.ID
	}
	subParts := dataflow.ReduceByKey(
		dataflow.Map(leveled, func(p dataflow.Pair[rdf.ID, dataflow.JoinRow[rdf.Triple, int]]) dataflow.Pair[keyed, []Pair] {
			t, level := p.Value.Left, p.Value.Right
			return dataflow.Pair[keyed, []Pair]{
				Key:   keyed{Level: level, Prop: t.P},
				Value: []Pair{{S: t.S, O: t.O}},
			}
		}),
		0,
		func(k keyed) uint64 { return uint64(k.Level)<<32 | uint64(k.Prop) },
		func(a, b []Pair) []Pair { return append(a, b...) },
	)

	lay := &Layout{
		Dict:        g.Dict,
		Hierarchy:   h,
		NumLevels:   h.MaxLevel(),
		VP:          make(map[rdf.ID]LevelSet),
		SI:          make(map[rdf.ID]int),
		OI:          make(map[rdf.ID]LevelSet),
		SubPartRows: make(map[SubPartKey]int),
		gen:         make(map[SubPartKey]uint64),
		fs:          fs,
		dictFiles:   new(dictFiles),
	}
	lay.LevelTriples = make([]int64, lay.NumLevels)
	if opts.BuildBlooms {
		lay.blooms = make(map[SubPartKey]SubPartBlooms)
	}

	// Persist sub-partitions (driver-side writes; the dfs is shared).
	collected := subParts.Collect()
	sort.Slice(collected, func(i, j int) bool {
		a, b := collected[i].Key, collected[j].Key
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		return a.Prop < b.Prop
	})
	for _, kv := range collected {
		key := SubPartKey{Level: kv.Key.Level, Prop: kv.Key.Prop}
		pairs := kv.Value
		lay.SubPartRows[key] = len(pairs)
		lay.LevelTriples[key.Level-1] += int64(len(pairs))
		scol := make([]uint32, len(pairs))
		ocol := make([]uint32, len(pairs))
		for i, pr := range pairs {
			scol[i] = pr.S
			ocol[i] = pr.O
		}
		w, err := fs.Create(subPartPath(key))
		if err != nil {
			return nil, fmt.Errorf("hpart: %w", err)
		}
		n, err := columnar.WriteColumns(w, [][]uint32{scol, ocol}, opts.Encoding)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("hpart: write %s: %w", key, err)
		}
		lay.StoredBytes += n
		if opts.BuildBlooms {
			bl := buildBlooms(pairs)
			lay.blooms[key] = bl
			if err := lay.writeBlooms(key, bl); err != nil {
				return nil, err
			}
		}
	}

	// Stage 5 — indexes by keyed reduction: VP and OI union level sets,
	// SI carries each subject's single level.
	vp := dataflow.ReduceByKey(
		dataflow.Map(leveled, func(p dataflow.Pair[rdf.ID, dataflow.JoinRow[rdf.Triple, int]]) dataflow.Pair[rdf.ID, LevelSet] {
			return dataflow.Pair[rdf.ID, LevelSet]{Key: p.Value.Left.P, Value: LevelSet(0).Add(p.Value.Right)}
		}),
		0, idHash,
		func(a, b LevelSet) LevelSet { return a.Union(b) },
	)
	for _, p := range vp.Collect() {
		lay.VP[p.Key] = p.Value
	}
	oi := dataflow.ReduceByKey(
		dataflow.Map(leveled, func(p dataflow.Pair[rdf.ID, dataflow.JoinRow[rdf.Triple, int]]) dataflow.Pair[rdf.ID, LevelSet] {
			return dataflow.Pair[rdf.ID, LevelSet]{Key: p.Value.Left.O, Value: LevelSet(0).Add(p.Value.Right)}
		}),
		0, idHash,
		func(a, b LevelSet) LevelSet { return a.Union(b) },
	)
	for _, p := range oi.Collect() {
		lay.OI[p.Key] = p.Value
	}
	for _, p := range subjLevel.Collect() {
		lay.SI[p.Key] = p.Value
	}

	if err := lay.writeIndexes(); err != nil {
		return nil, err
	}
	lay.PreprocessTime = time.Since(start)
	return lay, nil
}
