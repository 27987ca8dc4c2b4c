package rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestDictEncodeStable(t *testing.T) {
	d := NewDict()
	a := d.Encode(NewIRI("http://x/a"))
	b := d.Encode(NewIRI("http://x/b"))
	if a == b {
		t.Fatalf("distinct terms share ID %d", a)
	}
	if got := d.Encode(NewIRI("http://x/a")); got != a {
		t.Errorf("re-encode changed ID: %d != %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestDictKindsDistinct(t *testing.T) {
	d := NewDict()
	ids := []ID{
		d.Encode(NewIRI("x")),
		d.Encode(NewLiteral("x")),
		d.Encode(NewBlank("x")),
	}
	seen := make(map[ID]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("terms of different kinds collided on ID %d", id)
		}
		seen[id] = true
	}
}

func TestDictLookup(t *testing.T) {
	d := NewDict()
	id := d.Encode(NewLiteral("v"))
	if got := d.Lookup(NewLiteral("v")); got != id {
		t.Errorf("Lookup = %d, want %d", got, id)
	}
	if got := d.Lookup(NewLiteral("absent")); got != NoID {
		t.Errorf("Lookup(absent) = %d, want NoID", got)
	}
	if got := d.LookupIRI("nope"); got != NoID {
		t.Errorf("LookupIRI(nope) = %d, want NoID", got)
	}
}

func TestDictTermRoundTrip(t *testing.T) {
	d := NewDict()
	terms := []Term{
		NewIRI("http://example.org/p"),
		NewLangLiteral("chat", "fr"),
		NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
		NewBlank("node0"),
	}
	for _, tm := range terms {
		id := d.Encode(tm)
		if got := d.Term(id); got != tm {
			t.Errorf("Term(%d) = %+v, want %+v", id, got, tm)
		}
	}
}

func TestDictSerializeRoundTrip(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		d.Encode(NewIRI(fmt.Sprintf("http://x/e%d", i)))
		d.Encode(NewLiteral(fmt.Sprintf("lit %d with \"quotes\"\nand newline", i)))
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("round-trip Len %d != %d", d2.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if d.Term(ID(i)) != d2.Term(ID(i)) {
			t.Fatalf("term %d differs: %+v vs %+v", i, d.Term(ID(i)), d2.Term(ID(i)))
		}
	}
}

func TestReadDictErrors(t *testing.T) {
	for _, in := range []string{"", "notanumber\n", "-3\n", "2\n<a>\n"} {
		if _, err := ReadDict(bytes.NewBufferString(in)); err == nil {
			t.Errorf("ReadDict(%q) succeeded, want error", in)
		}
	}
}

func TestDictConcurrentEncode(t *testing.T) {
	d := NewDict()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 200
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		ids[w] = make([]ID, perWorker)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ids[w][i] = d.Encode(NewIRI(fmt.Sprintf("http://x/shared%d", i)))
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != perWorker {
		t.Fatalf("Len = %d, want %d", d.Len(), perWorker)
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d got ID %d for term %d, worker 0 got %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
}

// TestDictIDsAreDense checks the dictionary invariant higher layers rely
// on for slice-indexed structures: IDs are handed out contiguously from 0.
func TestDictIDsAreDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDict()
	var max ID
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := d.Encode(randomTerm(rng, i%3))
		seen[id] = true
		if id > max {
			max = id
		}
	}
	if int(max)+1 != d.Len() {
		t.Fatalf("max ID %d but Len %d", max, d.Len())
	}
	for i := ID(0); i <= max; i++ {
		if !seen[i] {
			t.Fatalf("ID %d skipped", i)
		}
	}
}

// TestDictSegments: a dictionary saved as a base plus segments reads
// back with the same IDs, and the reader rejects a term it already
// holds.
func TestDictSegments(t *testing.T) {
	d := NewDict()
	for i := 0; i < 5; i++ {
		d.Encode(NewIRI(fmt.Sprintf("http://x/%d", i)))
	}
	var base bytes.Buffer
	if _, err := d.WriteTo(&base); err != nil {
		t.Fatal(err)
	}
	d.Encode(NewLiteral("new\n\"one\""))
	d.Encode(NewLangLiteral("deux", "fr"))
	var seg bytes.Buffer
	if _, err := d.WriteSegment(&seg, 5, d.Len()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDict(&base)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.ReadSegment(bytes.NewReader(seg.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.Sig() != d.Sig() {
		t.Fatalf("base + segment: %d terms sig %x, want %d sig %x", got.Len(), got.Sig(), d.Len(), d.Sig())
	}
	if err := got.ReadSegment(bytes.NewReader(seg.Bytes())); err == nil {
		t.Error("a segment of terms already held was accepted")
	}
	if _, err := d.WriteSegment(&seg, 3, 2); err == nil {
		t.Error("WriteSegment accepted an inverted range")
	}
}

// TestReadDictLyingCount: a header claiming billions of terms over an
// input that carries one allocates for what the input carries, not for
// what it claims.
func TestReadDictLyingCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadDict(strings.NewReader("4000000000\n<a>\n"))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated dictionary was accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("reading a 15-byte dictionary allocated %d bytes", alloc)
	}
}
