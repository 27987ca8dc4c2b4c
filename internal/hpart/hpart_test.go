package hpart

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ping/internal/cs"
	"ping/internal/dfs"
	"ping/internal/rdf"
)

// uniprotExample builds the running example of Fig. 1: three proteins with
// nested characteristic sets across three levels.
func uniprotExample() *rdf.Graph {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	g.Add(iri("P26474"), iri("occursIn"), iri("Organism7"))
	g.Add(iri("P26474"), iri("hasKeyword"), iri("Keyword546"))
	g.Add(iri("P43426"), iri("occursIn"), iri("Organism584"))
	g.Add(iri("P43426"), iri("hasKeyword"), iri("Keyword125"))
	g.Add(iri("P43426"), iri("reference"), iri("Article972"))
	g.Add(iri("P38952"), iri("occursIn"), iri("Organism676"))
	g.Add(iri("P38952"), iri("hasKeyword"), iri("Keyword789"))
	g.Add(iri("P38952"), iri("reference"), iri("Article892"))
	g.Add(iri("P38952"), iri("interacts"), iri("P43426"))
	return g
}

// randomGraph generates a graph with controlled CS nesting for property
// tests: subjects pick a depth d and get the first d properties of a
// chain, ensuring multi-level hierarchies.
func randomGraph(seed int64, subjects, maxDepth int) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph()
	props := make([]rdf.Term, maxDepth)
	for i := range props {
		props[i] = rdf.NewIRI(fmt.Sprintf("http://x/p%d", i))
	}
	for s := 0; s < subjects; s++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", s))
		depth := 1 + rng.Intn(maxDepth)
		for d := 0; d < depth; d++ {
			obj := rdf.NewIRI(fmt.Sprintf("http://x/o%d", rng.Intn(subjects)))
			g.Add(subj, props[d], obj)
		}
	}
	g.Dedup()
	return g
}

func TestPartitionRunningExample(t *testing.T) {
	g := uniprotExample()
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumLevels != 3 {
		t.Fatalf("NumLevels = %d, want 3", lay.NumLevels)
	}
	// Fig. 1(c): L1 has protein 26474's 2 triples, L2 has 43426's 3, L3
	// has 38952's 4.
	want := []int64{2, 3, 4}
	for i, w := range want {
		if lay.LevelTriples[i] != w {
			t.Errorf("LevelTriples[%d] = %d, want %d", i, lay.LevelTriples[i], w)
		}
	}
	d := g.Dict
	// Fig. 3 index spot-checks.
	occursIn := d.LookupIRI("occursIn")
	if got := lay.PropertyLevels(occursIn); got.String() != "{1-3}" {
		t.Errorf("VP[occursIn] = %v, want {1-3}", got)
	}
	interacts := d.LookupIRI("interacts")
	if got := lay.PropertyLevels(interacts); got.String() != "{3}" {
		t.Errorf("VP[interacts] = %v, want {3}", got)
	}
	reference := d.LookupIRI("reference")
	if got := lay.PropertyLevels(reference); got.String() != "{2-3}" {
		t.Errorf("VP[reference] = %v, want {2-3}", got)
	}
	// SI: Protein26474 on L1; Protein43426 on L2.
	if got := lay.SI[d.LookupIRI("P26474")]; got != 1 {
		t.Errorf("SI[P26474] = %d, want 1", got)
	}
	if got := lay.SI[d.LookupIRI("P43426")]; got != 2 {
		t.Errorf("SI[P43426] = %d, want 2", got)
	}
	// OI: Protein43426 appears as object on L3 (interacts target);
	// Keyword789 on L3.
	if got := lay.ObjectLevels(d.LookupIRI("P43426")); !got.Has(3) {
		t.Errorf("OI[P43426] = %v, want {3}", got)
	}
	if got := lay.ObjectLevels(d.LookupIRI("Keyword789")); got.String() != "{3}" {
		t.Errorf("OI[Keyword789] = %v", got)
	}
}

// TestModularityAndLosslessness verifies Theorems 3.4 and 3.5: the levels
// are pairwise disjoint and their union reassembles the input graph
// exactly.
func TestModularityAndLosslessness(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 200, 6)
		lay, err := Partition(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Reassemble triples from all sub-partitions.
		seen := make(map[rdf.Triple]int)
		var total int64
		for _, key := range lay.SubPartitions() {
			pairs, err := lay.ReadSubPartition(key)
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != lay.SubPartRows[key] {
				t.Errorf("%v: read %d rows, inventory says %d", key, len(pairs), lay.SubPartRows[key])
			}
			for _, pr := range pairs {
				seen[rdf.Triple{S: pr.S, P: key.Prop, O: pr.O}]++
				total++
			}
		}
		// Modularity: no triple may occur in two sub-partitions.
		for tr, n := range seen {
			if n != 1 {
				t.Fatalf("seed %d: triple %v assigned %d times (modularity violated)", seed, tr, n)
			}
		}
		// Losslessness: the union is exactly the input.
		if total != int64(g.Len()) {
			t.Fatalf("seed %d: reassembled %d triples, input has %d", seed, total, g.Len())
		}
		for _, tr := range g.Triples {
			if seen[tr] != 1 {
				t.Fatalf("seed %d: input triple %v missing from partitions", seed, tr)
			}
		}
		// Level counts must agree.
		if lay.TotalTriples() != int64(g.Len()) {
			t.Errorf("seed %d: TotalTriples = %d, want %d", seed, lay.TotalTriples(), g.Len())
		}
	}
}

// TestIndexesMatchBruteForce verifies the three indexes against direct
// scans of the partitioned triples.
func TestIndexesMatchBruteForce(t *testing.T) {
	g := randomGraph(42, 150, 5)
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	csBySubject := cs.Extract(g)
	h := cs.Build(csBySubject)
	for _, tr := range g.Triples {
		level := h.LevelOf(csBySubject[tr.S])
		if got := lay.SI[tr.S]; got != level {
			t.Fatalf("SI[%d] = %d, want %d", tr.S, got, level)
		}
		if !lay.VP[tr.P].Has(level) {
			t.Fatalf("VP[%d] missing level %d", tr.P, level)
		}
		if !lay.OI[tr.O].Has(level) {
			t.Fatalf("OI[%d] missing level %d", tr.O, level)
		}
	}
	// No phantom levels: every VP/OI bit must be backed by a triple.
	backedVP := make(map[rdf.ID]LevelSet)
	backedOI := make(map[rdf.ID]LevelSet)
	for _, tr := range g.Triples {
		level := h.LevelOf(csBySubject[tr.S])
		backedVP[tr.P] = backedVP[tr.P].Add(level)
		backedOI[tr.O] = backedOI[tr.O].Add(level)
	}
	for p, set := range lay.VP {
		if set != backedVP[p] {
			t.Errorf("VP[%d] = %v, want %v", p, set, backedVP[p])
		}
	}
	for o, set := range lay.OI {
		if set != backedOI[o] {
			t.Errorf("OI[%d] = %v, want %v", o, set, backedOI[o])
		}
	}
}

func TestPersistRoundTrip(t *testing.T) {
	g := randomGraph(7, 100, 4)
	fs := dfs.New(dfs.Config{})
	lay, err := Partition(g, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := lay.SaveDict(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLevels != lay.NumLevels {
		t.Errorf("NumLevels %d != %d", got.NumLevels, lay.NumLevels)
	}
	if len(got.VP) != len(lay.VP) || len(got.SI) != len(lay.SI) || len(got.OI) != len(lay.OI) {
		t.Errorf("index sizes differ: %d/%d/%d vs %d/%d/%d",
			len(got.VP), len(got.SI), len(got.OI), len(lay.VP), len(lay.SI), len(lay.OI))
	}
	for p, set := range lay.VP {
		if got.VP[p] != set {
			t.Errorf("VP[%d] = %v, want %v", p, got.VP[p], set)
		}
	}
	for s, level := range lay.SI {
		if got.SI[s] != level {
			t.Errorf("SI[%d] = %d, want %d", s, got.SI[s], level)
		}
	}
	for o, set := range lay.OI {
		if got.OI[o] != set {
			t.Errorf("OI[%d] = %v, want %v", o, got.OI[o], set)
		}
	}
	for key, rows := range lay.SubPartRows {
		if got.SubPartRows[key] != rows {
			t.Errorf("SubPartRows[%v] = %d, want %d", key, got.SubPartRows[key], rows)
		}
	}
	for i := range lay.LevelTriples {
		if got.LevelTriples[i] != lay.LevelTriples[i] {
			t.Errorf("LevelTriples[%d] = %d, want %d", i, got.LevelTriples[i], lay.LevelTriples[i])
		}
	}
	// The dictionary must round-trip usable for term resolution.
	if got.Dict.Len() != g.Dict.Len() {
		t.Errorf("dict len %d != %d", got.Dict.Len(), g.Dict.Len())
	}
	// Data must be readable through the loaded layout.
	for _, key := range got.SubPartitions() {
		pairs, err := got.ReadSubPartition(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != got.SubPartRows[key] {
			t.Errorf("%v: %d rows vs inventory %d", key, len(pairs), got.SubPartRows[key])
		}
	}
}

func TestLoadWithProvidedDict(t *testing.T) {
	g := randomGraph(8, 50, 3)
	fs := dfs.New(dfs.Config{})
	if _, err := Partition(g, Options{FS: fs}); err != nil {
		t.Fatal(err)
	}
	// No SaveDict: loading must still work when the dict is supplied.
	got, err := Load(fs, g.Dict)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dict != g.Dict {
		t.Error("provided dict not used")
	}
	// And must fail when the dict is neither supplied nor stored.
	if _, err := Load(fs, nil); err == nil {
		t.Error("Load without dict succeeded")
	}
}

func TestReadMissingSubPartition(t *testing.T) {
	g := uniprotExample()
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lay.ReadSubPartition(SubPartKey{Level: 9, Prop: 12345}); err == nil {
		t.Error("reading absent sub-partition succeeded")
	}
	if lay.HasSubPartition(SubPartKey{Level: 9, Prop: 12345}) {
		t.Error("HasSubPartition claims absent partition")
	}
}

func TestSubjectLevelsHelper(t *testing.T) {
	g := uniprotExample()
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Dict
	if got := lay.SubjectLevels(d.LookupIRI("P26474")); got.String() != "{1}" {
		t.Errorf("SubjectLevels(P26474) = %v", got)
	}
	if got := lay.SubjectLevels(d.LookupIRI("Organism7")); !got.Empty() {
		t.Errorf("SubjectLevels(non-subject) = %v", got)
	}
	if got := lay.AllLevels(); got.Count() != 3 {
		t.Errorf("AllLevels = %v", got)
	}
}

func TestPartitionEmptyGraph(t *testing.T) {
	lay, err := Partition(rdf.NewGraph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumLevels != 0 || lay.TotalTriples() != 0 {
		t.Errorf("empty graph: levels=%d triples=%d", lay.NumLevels, lay.TotalTriples())
	}
}

func TestStoredBytesPositive(t *testing.T) {
	g := randomGraph(9, 100, 4)
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lay.StoredBytes <= 0 {
		t.Errorf("StoredBytes = %d", lay.StoredBytes)
	}
	if lay.PreprocessTime <= 0 {
		t.Errorf("PreprocessTime = %v", lay.PreprocessTime)
	}
}

// TestMultiTypeSubjectSingleLevel checks §3.8's note: a subject with
// multiple rdf:type values still has exactly one CS and one level.
func TestMultiTypeSubjectSingleLevel(t *testing.T) {
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	typ := rdf.NewIRI(rdf.RDFType)
	g.Add(iri("s"), typ, iri("TypeA"))
	g.Add(iri("s"), typ, iri("TypeB"))
	g.Add(iri("s"), iri("p"), iri("o"))
	lay, err := Partition(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumLevels != 1 {
		t.Errorf("NumLevels = %d, want 1", lay.NumLevels)
	}
	if got := lay.SI[g.Dict.LookupIRI("s")]; got != 1 {
		t.Errorf("SI[s] = %d", got)
	}
	if lay.TotalTriples() != 3 {
		t.Errorf("TotalTriples = %d, want 3 (type triples partition like any other)", lay.TotalTriples())
	}
}

// TestPartitionSameGraphSameBytes: partitioning one graph into two
// on-disk stores must produce byte-identical files — the sub-partitions,
// the index files, meta.pcol, the dictionary, the manifest and every
// block file — so a store is a pure function of its graph.
func TestPartitionSameGraphSameBytes(t *testing.T) {
	g := randomGraph(11, 300, 5)
	build := func() string {
		dir := t.TempDir()
		store, err := dfs.NewOnDisk(dir, dfs.Config{DataNodes: 3, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		lay, err := Partition(g, Options{FS: store})
		if err != nil {
			t.Fatal(err)
		}
		if err := lay.SaveDict(); err != nil {
			t.Fatal(err)
		}
		if err := store.SaveManifest(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	dirA, dirB := build(), build()
	files := func(dir string) map[string][]byte {
		out := make(map[string][]byte)
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			out[rel] = data
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := files(dirA), files(dirB)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stores hold %d and %d files", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("%s differs between two partitions of the same graph (%d vs %d bytes)", name, len(data), len(b[name]))
		}
	}
}
