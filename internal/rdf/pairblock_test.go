package rdf

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortedPairs returns n distinct pairs in (S, O) order drawn from a
// subject range of ns and an object range of no.
func sortedPairs(rng *rand.Rand, n, ns, no int) []SOPair {
	seen := make(map[SOPair]bool, n)
	out := make([]SOPair, 0, n)
	for len(out) < n && len(out) < ns*no {
		p := SOPair{S: ID(1 + rng.Intn(ns)), O: ID(1 + rng.Intn(no))}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return SOPairLess(out[i], out[j]) })
	return out
}

// runPairs has long runs of close objects per subject under a wide
// object range: cheap as deltas, costly as Elias-Fano keys.
func runPairs() []SOPair {
	var out []SOPair
	for s := ID(1); s <= 4; s++ {
		for o := ID(1); o <= 300; o++ {
			out = append(out, SOPair{S: s, O: o})
		}
	}
	return append(out, SOPair{S: 5, O: 1 << 31})
}

// TestPairBlockDecodePaths checks that every way of reading a block —
// ForEach, ForEachBatch at several buffer sizes, AppendTo and
// Materialize — yields the packed pairs in order, for both packed
// formats and for raw blocks.
func TestPairBlockDecodePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]SOPair{
		"empty":  nil,
		"one":    {{S: 5, O: 9}},
		"dense":  sortedPairs(rng, 3000, 300, 20), // Elias-Fano wins
		"sparse": sortedPairs(rng, 700, 1<<30, 1<<30),
		"runs":   runPairs(), // delta-varint wins
		"wide":   sortedPairs(rng, 1000, 50, 1<<20),
	}
	formats := map[string]byte{}
	for name, pairs := range cases {
		for _, b := range []PairBlock{PackPairs(pairs), RawPairs(pairs)} {
			if b.Packed() {
				formats[name] = b.packed[0]
			}
			var each []SOPair
			b.ForEach(func(p SOPair) { each = append(each, p) })
			if !slices.Equal(each, pairs) {
				t.Fatalf("%s packed=%v: ForEach gave %d pairs, want %d", name, b.Packed(), len(each), len(pairs))
			}
			for _, size := range []int{0, 1, 3, 64, 4096} {
				var got []SOPair
				b.ForEachBatch(make([]SOPair, size), func(batch []SOPair) {
					if len(batch) == 0 {
						t.Fatalf("%s: empty batch", name)
					}
					got = append(got, batch...)
				})
				if !slices.Equal(got, pairs) {
					t.Fatalf("%s packed=%v buf %d: ForEachBatch gave %d pairs, want %d", name, b.Packed(), size, len(got), len(pairs))
				}
			}
			prefix := []SOPair{{S: 1, O: 1}}
			if got := b.AppendTo(prefix); !slices.Equal(got, append(slices.Clone(prefix), pairs...)) {
				t.Fatalf("%s packed=%v: AppendTo lost or reordered pairs", name, b.Packed())
			}
			if got := b.Materialize(); len(pairs) > 0 && !slices.Equal(got, pairs) {
				t.Fatalf("%s packed=%v: Materialize differs", name, b.Packed())
			}
		}
	}
	if formats["dense"] != tagEF || formats["runs"] != tagDelta {
		t.Fatalf("cases no longer cover both formats: %v", formats)
	}
}

// TestForEachBatchAllocationFree: draining a packed block through a
// caller buffer allocates nothing.
func TestForEachBatchAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := PackPairs(sortedPairs(rng, 5000, 500, 40))
	buf := make([]SOPair, 256)
	n := 0
	count := func(batch []SOPair) { n += len(batch) }
	if a := testing.AllocsPerRun(20, func() { b.ForEachBatch(buf, count) }); a != 0 {
		t.Errorf("ForEachBatch allocated %.1f times per block", a)
	}
	if n != 21*5000 {
		t.Errorf("decoded %d pairs over 21 runs, want %d", n, 21*5000)
	}
}
