package rdf_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"ping/internal/gmark"
	"ping/internal/rdf"
)

// TestDictResidentBytes reads a generated dbpedia dictionary and checks
// what it costs in memory: at most 1.5× its file's bytes per term plus
// 16 B, and ResidentBytes within 5 % of the heap it actually holds.
func TestDictResidentBytes(t *testing.T) {
	g := gmark.DatasetByName("dbpedia").Schema.Generate(2, 42).Graph
	var file bytes.Buffer
	if _, err := g.Dict.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	data := file.Bytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := rdf.ReadDict(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	resident := float64(d.ResidentBytes())
	n := float64(d.Len())
	t.Logf("%d terms: file %.1f B/term, resident %.1f B/term, heap %.1f B/term",
		d.Len(), float64(len(data))/n, resident/n, heap/n)
	if limit := 1.5*float64(len(data))/n + 16; resident/n > limit {
		t.Errorf("resident %.1f B per term, bound %.1f", resident/n, limit)
	}
	if math.Abs(resident-heap) > 0.05*heap {
		t.Errorf("ResidentBytes %.0f, heap delta %.0f", resident, heap)
	}
	runtime.KeepAlive(d)
	runtime.KeepAlive(data)
	runtime.KeepAlive(g)
}
