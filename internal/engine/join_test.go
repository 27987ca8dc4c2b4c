package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ping/internal/rdf"
)

// randomJoinPair returns two relations sharing nShared columns, each
// with up to two columns of its own, in shuffled column order. Values
// come from a tiny domain, so keys repeat on both sides.
func randomJoinPair(rng *rand.Rand, nShared, nLeft, nRight int) (*Relation, *Relation) {
	side := func(own string, nRows int) *Relation {
		var vars []string
		for i := 0; i < nShared; i++ {
			vars = append(vars, fmt.Sprintf("k%d", i))
		}
		for i := rng.Intn(3); i > 0; i-- {
			vars = append(vars, fmt.Sprintf("%s%d", own, i))
		}
		rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		rel := &Relation{Vars: vars}
		for i := 0; i < nRows; i++ {
			row := make([]rdf.ID, len(vars))
			for j := range row {
				row[j] = rdf.ID(rng.Intn(3))
			}
			rel.Rows = append(rel.Rows, row)
		}
		return rel
	}
	return side("l", nLeft), side("r", nRight)
}

// checkJoin compares join with the nested-loop oracle: same columns,
// same rows as a multiset.
func checkJoin(t *testing.T, label string, left, right *Relation) {
	t.Helper()
	got, want := join(left, right), nestedLoopJoin(left, right)
	if !slices.Equal(got.Vars, want.Vars) {
		t.Fatalf("%s: join vars %v, oracle %v", label, got.Vars, want.Vars)
	}
	if !sameRelation(got, want) {
		t.Fatalf("%s: join %d rows, oracle %d (left %v×%d, right %v×%d)",
			label, got.Card(), want.Card(), left.Vars, left.Card(), right.Vars, right.Card())
	}
}

// TestJoinMatchesNestedLoop is the join's differential test: random
// pairs with 0–4 shared columns (0 is a cross product), duplicate keys,
// empty sides, and either side the smaller one, so each side takes its
// turn as the build side.
func TestJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sizes := []int{0, 1, 2, 7, 30}
	for iter := 0; iter < 400; iter++ {
		nShared := iter % 5
		nl, nr := sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]
		left, right := randomJoinPair(rng, nShared, nl, nr)
		checkJoin(t, fmt.Sprintf("iter %d shared %d", iter, nShared), left, right)
	}
}

// TestJoinWideKeyCollision forces every key of three or more columns to
// hash alike: the join must still keep exactly the rows that agree on
// the key columns.
func TestJoinWideKeyCollision(t *testing.T) {
	defer func(h func([]rdf.ID, []int) uint64) { wideKey = h }(wideKey)
	wideKey = func([]rdf.ID, []int) uint64 { return 42 }
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		nShared := 3 + iter%2
		left, right := randomJoinPair(rng, nShared, 1+rng.Intn(30), 1+rng.Intn(30))
		checkJoin(t, fmt.Sprintf("iter %d shared %d", iter, nShared), left, right)
	}
}

// TestJoinAllocationBound: a join of two 20 000-row relations allocates
// its output rows, its hash table, and at most 64 KiB besides — no
// per-input-row copies.
func TestJoinAllocationBound(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(11))
	left := &Relation{Vars: []string{"s", "a"}}
	right := &Relation{Vars: []string{"b", "s"}}
	for i := 0; i < n; i++ {
		left.Rows = append(left.Rows, []rdf.ID{rdf.ID(rng.Intn(n)), rdf.ID(i)})
		right.Rows = append(right.Rows, []rdf.ID{rdf.ID(i), rdf.ID(rng.Intn(n))})
	}
	var out *Relation
	var ms runtime.MemStats
	used := uint64(1 << 62)
	for run := 0; run < 3; run++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		out = join(left, right)
		runtime.ReadMemStats(&ms)
		used = min(used, ms.TotalAlloc-before)
	}
	rowBytes := uint64(out.Card()) * (24 + 4*uint64(len(out.Vars)))
	table := newHashIndex(n)
	for _, row := range left.Rows {
		table.add(joinKey(row, []int{0}))
	}
	tableBytes := uint64(12*len(table.keys) + 4*cap(table.next))
	if bound := rowBytes + tableBytes + 64<<10; used > bound {
		t.Errorf("join allocated %d B; bound %d B (%d output rows %d B, table %d B, 64 KiB)",
			used, bound, out.Card(), rowBytes, tableBytes)
	}
	if out.Card() < n/2 {
		t.Fatalf("only %d output rows; the bound is not exercised", out.Card())
	}
}
