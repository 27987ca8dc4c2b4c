package hpart

import (
	"context"
	"testing"

	"ping/internal/rdf"
)

// TestSubPartCacheHitMiss: the first cached read misses and loads from
// storage, the second hits and returns the same rows.
func TestSubPartCacheHitMiss(t *testing.T) {
	g := uniprotExample()
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lay.EnableSubPartCache(0)
	key := lay.SubPartitions()[0]

	p1, hit, err := lay.ReadSubPartitionCached(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first read reported a cache hit")
	}
	p2, hit, err := lay.ReadSubPartitionCached(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second read missed the cache")
	}
	r1, r2 := p1.Materialize(), p2.Materialize()
	if len(r1) != len(r2) {
		t.Fatalf("cached rows differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("row %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
	if lay.SubPartCacheLen() != 1 {
		t.Fatalf("cache holds %d entries, want 1", lay.SubPartCacheLen())
	}
}

// TestSubPartCacheNoCacheInstalled: without EnableSubPartCache the cached
// read degrades to a plain read.
func TestSubPartCacheNoCacheInstalled(t *testing.T) {
	g := uniprotExample()
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := lay.SubPartitions()[0]
	for i := 0; i < 2; i++ {
		_, hit, err := lay.ReadSubPartitionCached(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatal("hit reported with no cache installed")
		}
	}
	if lay.SubPartCacheLen() != 0 {
		t.Fatal("cache grew without being installed")
	}
}

// TestSubPartCacheLRUEviction: with capacity 2, touching a third key
// evicts the least recently used entry.
func TestSubPartCacheLRUEviction(t *testing.T) {
	g := randomGraph(7, 40, 4)
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := lay.SubPartitions()
	if len(keys) < 3 {
		t.Fatalf("need >=3 sub-partitions, got %d", len(keys))
	}
	lay.EnableSubPartCache(2)
	ctx := context.Background()

	read := func(k SubPartKey) bool {
		t.Helper()
		_, hit, err := lay.ReadSubPartitionCached(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	read(keys[0]) // cache: [0]
	read(keys[1]) // cache: [1 0]
	if !read(keys[0]) {
		t.Fatal("keys[0] evicted while cache below capacity")
	}
	read(keys[2]) // cache: [2 0]; keys[1] was LRU and is evicted
	if !read(keys[0]) {
		t.Fatal("recently used entry was evicted")
	}
	if read(keys[1]) {
		t.Fatal("LRU entry was not evicted")
	}
	if lay.SubPartCacheLen() != 2 {
		t.Fatalf("cache holds %d entries, want 2", lay.SubPartCacheLen())
	}
}

// TestSubPartCacheInvalidatedByMaintainer: a maintenance batch that
// rewrites a sub-partition writes a new generation, so the new epoch's
// cached reads never see the old file's cached rows.
func TestSubPartCacheInvalidatedByMaintainer(t *testing.T) {
	g := uniprotExample()
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lay.EnableSubPartCache(0)
	ctx := context.Background()

	// Warm the cache with every sub-partition.
	for _, k := range lay.SubPartitions() {
		if _, _, err := lay.ReadSubPartitionCached(ctx, k); err != nil {
			t.Fatal(err)
		}
	}

	m, err := NewStoreMaintainer(NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	iri := rdf.NewIRI
	add := rdf.Triple{
		S: lay.Dict.Encode(iri("P26474")),
		P: lay.Dict.Encode(iri("occursIn")),
		O: lay.Dict.Encode(iri("Organism999")),
	}
	if err := m.AddTriples([]rdf.Triple{add}); err != nil {
		t.Fatal(err)
	}
	lay = m.Layout()

	// Every sub-partition's cached rows must now agree with storage.
	for _, k := range lay.SubPartitions() {
		block, _, err := lay.ReadSubPartitionCached(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		cached := block.Materialize()
		direct, err := lay.ReadSubPartition(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(cached) != len(direct) {
			t.Fatalf("%v: cached %d rows, storage %d — stale cache", k, len(cached), len(direct))
		}
		seen := make(map[Pair]bool, len(direct))
		for _, pr := range direct {
			seen[pr] = true
		}
		for _, pr := range cached {
			if !seen[pr] {
				t.Fatalf("%v: cached row %v not in storage", k, pr)
			}
		}
	}
}
