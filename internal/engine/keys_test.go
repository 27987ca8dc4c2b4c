package engine

import (
	"math/rand"
	"testing"

	"ping/internal/rdf"
)

// nestedLoopJoin is the brute-force oracle: natural join by comparing
// shared columns pairwise, no hashing anywhere.
func nestedLoopJoin(left, right *Relation) *Relation {
	shared, lIdx, rIdx := sharedVars(left, right)
	out := &Relation{Vars: joinedVars(left, right, shared)}
	rKeep := keepIndexes(right, shared)
	for _, lr := range left.Rows {
		for _, rr := range right.Rows {
			if !rowsMatch(lr, lIdx, rr, rIdx) {
				continue
			}
			row := make([]rdf.ID, 0, len(out.Vars))
			row = append(row, lr...)
			for _, i := range rKeep {
				row = append(row, rr[i])
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

func sharedVars(left, right *Relation) (shared []string, lIdx, rIdx []int) {
	for li, v := range left.Vars {
		for ri, w := range right.Vars {
			if v == w {
				shared = append(shared, v)
				lIdx = append(lIdx, li)
				rIdx = append(rIdx, ri)
			}
		}
	}
	return
}

func joinedVars(left, right *Relation, shared []string) []string {
	vars := append([]string(nil), left.Vars...)
	for _, v := range right.Vars {
		dup := false
		for _, s := range shared {
			if v == s {
				dup = true
			}
		}
		if !dup {
			vars = append(vars, v)
		}
	}
	return vars
}

func keepIndexes(right *Relation, shared []string) []int {
	var keep []int
	for i, v := range right.Vars {
		dup := false
		for _, s := range shared {
			if v == s {
				dup = true
			}
		}
		if !dup {
			keep = append(keep, i)
		}
	}
	return keep
}

// TestJoinManySharedVars drives the join through the hashed-key path
// with 3+ shared columns (where the uint64 key is an FNV-1a hash, not a
// bijective packing) and checks the result against the nested-loop
// oracle: the full-row verification on probe must filter out any hash
// collisions.
func TestJoinManySharedVars(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, nShared := range []int{3, 4} {
			vars := make([]string, nShared)
			for i := range vars {
				vars[i] = string(rune('a' + i))
			}
			left := &Relation{Vars: append(append([]string{}, vars...), "l")}
			right := &Relation{Vars: append(append([]string{}, vars...), "r")}
			// A tiny value domain forces many equal keys and many
			// near-identical rows.
			for i := 0; i < 60; i++ {
				lrow := make([]rdf.ID, nShared+1)
				for j := 0; j < nShared; j++ {
					lrow[j] = rdf.ID(rng.Intn(3))
				}
				lrow[nShared] = rdf.ID(100 + i)
				left.Rows = append(left.Rows, lrow)
			}
			for i := 0; i < 12; i++ {
				rrow := make([]rdf.ID, nShared+1)
				for j := 0; j < nShared; j++ {
					rrow[j] = rdf.ID(rng.Intn(3))
				}
				rrow[nShared] = rdf.ID(200 + i)
				right.Rows = append(right.Rows, rrow)
			}

			if got, want := join(left, right), nestedLoopJoin(left, right); !sameRelation(got, want) {
				t.Fatalf("seed %d shared %d: join %d rows, oracle %d",
					seed, nShared, got.Card(), want.Card())
			}
		}
	}
}

// TestJoinKeyPacking: with 1 or 2 shared columns the key packs the IDs
// bijectively, so rows that agree on hash must agree on value; spot-check
// that distinct column values never collide.
func TestJoinKeyPacking(t *testing.T) {
	rows := [][]rdf.ID{
		{1, 2},
		{2, 1},
		{1 << 31, 0},
		{0, 1 << 31},
		{0, 0},
	}
	seen := make(map[uint64][]rdf.ID)
	for _, row := range rows {
		k := joinKey(row, []int{0, 1})
		if prev, ok := seen[k]; ok {
			t.Fatalf("rows %v and %v pack to the same key %d", prev, row, k)
		}
		seen[k] = row
	}
}

// TestDistinctCollisionSafe: Distinct dedups via hashed row sets; rows
// with equal hashes but different values must both survive. The rowSet
// falls back to full-row equality inside each bucket, so correctness
// cannot depend on hash quality — verify with many low-entropy rows.
func TestDistinctCollisionSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rel := &Relation{Vars: []string{"a", "b", "c"}}
	uniq := make(map[[3]rdf.ID]bool)
	for i := 0; i < 500; i++ {
		row := [3]rdf.ID{rdf.ID(rng.Intn(4)), rdf.ID(rng.Intn(4)), rdf.ID(rng.Intn(4))}
		uniq[row] = true
		rel.Rows = append(rel.Rows, []rdf.ID{row[0], row[1], row[2]})
		// Duplicate some rows immediately to stress the dedup.
		if i%3 == 0 {
			rel.Rows = append(rel.Rows, []rdf.ID{row[0], row[1], row[2]})
		}
	}
	d := rel.Distinct()
	if d.Card() != len(uniq) {
		t.Fatalf("Distinct kept %d rows, want %d", d.Card(), len(uniq))
	}
}

// TestRowSetMatchesMap: through every resize, the open-addressing row
// set agrees with a map on membership and keeps first occurrences in
// order.
func TestRowSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, width := range []int{0, 1, 3} {
		s := newRowSet(0)
		seen := make(map[[3]rdf.ID]bool)
		var order [][]rdf.ID
		for i := 0; i < 3000; i++ {
			var key [3]rdf.ID
			row := make([]rdf.ID, width)
			for j := range row {
				row[j] = rdf.ID(rng.Intn(20))
				key[j] = row[j]
			}
			if s.has(row) != seen[key] {
				t.Fatalf("width %d row %v: has %v, map %v", width, row, s.has(row), seen[key])
			}
			if s.add(row) == seen[key] {
				t.Fatalf("width %d row %v: add disagrees with the map", width, row)
			}
			if !seen[key] {
				seen[key] = true
				order = append(order, row)
			}
		}
		if s.len() != len(order) {
			t.Fatalf("width %d: %d members, want %d", width, s.len(), len(order))
		}
		for i, row := range order {
			if !rowsEqual(s.rows[i], row) {
				t.Fatalf("width %d: member %d is %v, want %v", width, i, s.rows[i], row)
			}
		}
	}
}
