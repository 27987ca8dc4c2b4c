package dataflow

import (
	"sort"
	"testing"
	"testing/quick"
)

func intHash(k int) uint64 { return uint64(k) }

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
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

func TestParallelizeCollect(t *testing.T) {
	ctx := NewContext(4)
	data := make([]int, 1000)
	for i := range data {
		data[i] = i
	}
	d := Parallelize(ctx, data, 7)
	if d.NumPartitions() != 7 {
		t.Errorf("NumPartitions = %d, want 7", d.NumPartitions())
	}
	if d.Count() != 1000 {
		t.Errorf("Count = %d", d.Count())
	}
	if got := d.Collect(); !equalInts(got, data) {
		t.Error("Collect does not round-trip Parallelize")
	}
}

func TestParallelizeEdgeCases(t *testing.T) {
	ctx := NewContext(2)
	empty := Parallelize[int](ctx, nil, 5)
	if empty.Count() != 0 || empty.NumPartitions() != 1 {
		t.Errorf("empty: count=%d parts=%d", empty.Count(), empty.NumPartitions())
	}
	tiny := Parallelize(ctx, []int{1, 2}, 10)
	if tiny.NumPartitions() > 2 {
		t.Errorf("2 rows spread over %d partitions", tiny.NumPartitions())
	}
	if tiny.Count() != 2 {
		t.Errorf("tiny count = %d", tiny.Count())
	}
	defaulted := Parallelize(ctx, make([]int, 100), 0)
	if defaulted.NumPartitions() <= 0 {
		t.Error("default parallelism not applied")
	}
}

func TestMapFilter(t *testing.T) {
	ctx := NewContext(4)
	data := []int{1, 2, 3, 4, 5, 6}
	d := Parallelize(ctx, data, 3)
	doubled := Map(d, func(x int) int { return x * 2 })
	if got := sorted(doubled.Collect()); !equalInts(got, []int{2, 4, 6, 8, 10, 12}) {
		t.Errorf("Map = %v", got)
	}
	evens := Filter(d, func(x int) bool { return x%2 == 0 })
	if got := sorted(evens.Collect()); !equalInts(got, []int{2, 4, 6}) {
		t.Errorf("Filter = %v", got)
	}
}

func TestUnionBagSemantics(t *testing.T) {
	ctx := NewContext(2)
	a := Parallelize(ctx, []int{1, 2}, 1)
	b := Parallelize(ctx, []int{2, 3}, 1)
	u := Union(a, b)
	if got := sorted(u.Collect()); !equalInts(got, []int{1, 2, 2, 3}) {
		t.Errorf("Union = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, []int{5, 1, 5, 2, 1, 5, 9}, 3)
	got := sorted(Distinct(d, 4, intHash).Collect())
	if !equalInts(got, []int{1, 2, 5, 9}) {
		t.Errorf("Distinct = %v", got)
	}
}

func TestDistinctQuickMatchesMapSemantics(t *testing.T) {
	ctx := NewContext(3)
	err := quick.Check(func(xs []int16) bool {
		data := make([]int, len(xs))
		for i, x := range xs {
			data[i] = int(x)
		}
		want := make(map[int]bool)
		for _, x := range data {
			want[x] = true
		}
		got := Distinct(Parallelize(ctx, data, 4), 3, intHash).Collect()
		if len(got) != len(want) {
			return false
		}
		for _, x := range got {
			if !want[x] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShuffleGroupsKeys(t *testing.T) {
	ctx := NewContext(4)
	var rows []Pair[int, string]
	for i := 0; i < 100; i++ {
		rows = append(rows, Pair[int, string]{i % 10, "v"})
	}
	d := Parallelize(ctx, rows, 5)
	sh := shuffle(d, 4, intHash)
	if sh.Count() != 100 {
		t.Fatalf("shuffle lost rows: %d", sh.Count())
	}
	// Every key must land in exactly one partition.
	where := make(map[int]int)
	for pi, part := range sh.parts {
		for _, row := range part {
			if prev, ok := where[row.Key]; ok && prev != pi {
				t.Fatalf("key %d split across partitions %d and %d", row.Key, prev, pi)
			}
			where[row.Key] = pi
		}
	}
}

func TestJoinByKey(t *testing.T) {
	ctx := NewContext(4)
	left := Parallelize(ctx, []Pair[int, string]{
		{1, "a"}, {2, "b"}, {2, "B"}, {3, "c"},
	}, 2)
	right := Parallelize(ctx, []Pair[int, int]{
		{2, 20}, {3, 30}, {3, 31}, {4, 40},
	}, 3)
	j := JoinByKey(left, right, 4, intHash)
	got := j.Collect()
	// Expected: (2,b,20),(2,B,20),(3,c,30),(3,c,31)
	if len(got) != 4 {
		t.Fatalf("join produced %d rows: %v", len(got), got)
	}
	count := map[[2]interface{}]int{}
	for _, row := range got {
		count[[2]interface{}{row.Value.Left, row.Value.Right}]++
	}
	for _, want := range [][2]interface{}{{"a", 0}} {
		if count[want] != 0 {
			t.Errorf("unmatched key leaked: %v", want)
		}
	}
	for _, want := range [][2]interface{}{{"b", 20}, {"B", 20}, {"c", 30}, {"c", 31}} {
		if count[want] != 1 {
			t.Errorf("missing join row %v", want)
		}
	}
}

func TestJoinByKeyBuildSideSymmetry(t *testing.T) {
	// The hash join builds on the smaller side; results must not depend
	// on which side that is.
	ctx := NewContext(2)
	small := []Pair[int, int]{{1, 10}, {2, 20}}
	big := make([]Pair[int, int], 0, 100)
	for i := 0; i < 100; i++ {
		big = append(big, Pair[int, int]{i % 4, i})
	}
	j1 := JoinByKey(Parallelize(ctx, small, 1), Parallelize(ctx, big, 4), 2, intHash)
	j2 := JoinByKey(Parallelize(ctx, big, 4), Parallelize(ctx, small, 1), 2, intHash)
	if j1.Count() != j2.Count() {
		t.Errorf("asymmetric join: %d vs %d rows", j1.Count(), j2.Count())
	}
	want := 50 // keys 1 and 2 appear 25 times each in big
	if j1.Count() != want {
		t.Errorf("join rows = %d, want %d", j1.Count(), want)
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := NewContext(4)
	var rows []Pair[int, int]
	for i := 1; i <= 100; i++ {
		rows = append(rows, Pair[int, int]{i % 5, i})
	}
	red := ReduceByKey(Parallelize(ctx, rows, 6), 3, intHash, func(a, b int) int { return a + b })
	if red.Count() != 5 {
		t.Fatalf("ReduceByKey produced %d keys, want 5", red.Count())
	}
	total := 0
	for _, row := range red.Collect() {
		total += row.Value
	}
	if total != 5050 {
		t.Errorf("sum over groups = %d, want 5050", total)
	}
}

func TestMetricsAccounting(t *testing.T) {
	ctx := NewContext(4)
	ctx.ResetMetrics()
	d := Parallelize(ctx, make([]int, 1000), 4)
	_ = Map(d, func(x int) int { return x })
	m := ctx.Metrics()
	if m.Stages != 1 || m.Tasks != 4 || m.RowsRead != 1000 {
		t.Errorf("after Map: %+v", m)
	}
	_ = Distinct(d, 4, intHash)
	m = ctx.Metrics()
	if m.RowsShuffled != 1000 {
		t.Errorf("RowsShuffled = %d, want 1000", m.RowsShuffled)
	}
	ctx.ResetMetrics()
	if m := ctx.Metrics(); m.Stages != 0 || m.RowsRead != 0 {
		t.Errorf("ResetMetrics left %+v", m)
	}
}

func TestContextDefaults(t *testing.T) {
	if NewContext(0).Workers() <= 0 {
		t.Error("NewContext(0) has no workers")
	}
	if NewContext(3).Workers() != 3 {
		t.Error("worker count not honored")
	}
}

func TestLargeParallelStress(t *testing.T) {
	ctx := NewContext(8)
	n := 50_000
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	d := Parallelize(ctx, data, 16)
	sum := 0
	for _, row := range ReduceByKey(
		Map(d, func(x int) Pair[int, int] { return Pair[int, int]{x % 97, x} }),
		8, intHash, func(a, b int) int { return a + b },
	).Collect() {
		sum += row.Value
	}
	want := n * (n - 1) / 2
	if sum != want {
		t.Errorf("stress sum = %d, want %d", sum, want)
	}
}
