package dataflow

import (
	"sort"
	"testing"
)

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

func TestMap(t *testing.T) {
	ctx := NewContext(4)
	data := []int{1, 2, 3, 4, 5, 6}
	d := Parallelize(ctx, data, 3)
	doubled := Map(d, func(x int) int { return x * 2 })
	if got := sorted(doubled.Collect()); !equalInts(got, []int{2, 4, 6, 8, 10, 12}) {
		t.Errorf("Map = %v", got)
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
	// 16 partitions over 8 workers: every row must come back once, in
	// partition order.
	out := Map(Parallelize(ctx, data, 16), func(x int) int { return 2 * x }).Collect()
	if len(out) != n {
		t.Fatalf("Map over %d rows returned %d", n, len(out))
	}
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("row %d = %d, want %d", i, v, 2*i)
		}
	}
}
