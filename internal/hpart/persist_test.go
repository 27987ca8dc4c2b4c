package hpart

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ping/internal/dfs"
	"ping/internal/rdf"
)

// diskLayout partitions a random graph into an on-disk store and saves
// its dictionary and manifest, as pingload does.
func diskLayout(t *testing.T, dir string) *Layout {
	t.Helper()
	fs, err := dfs.NewOnDisk(dir, dfs.Config{DataNodes: 2, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := Partition(randomGraph(31, 120, 4), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	saveStore(t, lay)
	return lay
}

func saveStore(t *testing.T, lay *Layout) {
	t.Helper()
	if err := lay.SaveDict(); err != nil {
		t.Fatal(err)
	}
	if err := lay.FS().SaveManifest(); err != nil {
		t.Fatal(err)
	}
}

func dictBlocks(t *testing.T, lay *Layout) [][]string {
	t.Helper()
	locs, err := lay.FS().BlockLocations(dictPath)
	if err != nil {
		t.Fatal(err)
	}
	return locs
}

func segments(lay *Layout) []string {
	var out []string
	for _, fi := range lay.FS().List(dictSegDir) {
		out = append(out, fi.Path)
	}
	return out
}

// TestSaveDictWritesOnlyNewTerms counts the dictionary's write path: K
// batches that intern no term leave dict.txt on its blocks and write no
// segment; a batch that interns terms writes exactly one segment holding
// exactly those terms.
func TestSaveDictWritesOnlyNewTerms(t *testing.T) {
	lay := diskLayout(t, t.TempDir())
	blocks := dictBlocks(t, lay)
	m, err := NewStoreMaintainer(NewStore(lay))
	if err != nil {
		t.Fatal(err)
	}
	d := lay.Dict
	for k := 0; k < 4; k++ {
		add := []rdf.Triple{{
			S: d.LookupIRI(fmt.Sprintf("http://x/s%d", k)),
			P: d.LookupIRI("http://x/p3"),
			O: d.LookupIRI(fmt.Sprintf("http://x/o%d", 7*k)),
		}}
		if err := m.Apply(add, nil); err != nil {
			t.Fatal(err)
		}
		saveStore(t, m.Layout())
	}
	if got := dictBlocks(t, m.Layout()); !reflect.DeepEqual(got, blocks) {
		t.Errorf("batches without new terms moved dict.txt from %v to %v", blocks, got)
	}
	if segs := segments(m.Layout()); len(segs) != 0 {
		t.Errorf("batches without new terms wrote segments %v", segs)
	}

	before := d.Len()
	add := []rdf.Triple{{
		S: d.EncodeIRI("http://x/new-subject"),
		P: d.EncodeIRI("http://x/new-prop"),
		O: d.Encode(rdf.NewLangLiteral("neu", "de")),
	}}
	if err := m.Apply(add, nil); err != nil {
		t.Fatal(err)
	}
	saveStore(t, m.Layout())
	segs := segments(m.Layout())
	if want := []string{fmt.Sprintf(dictSegFmt, before, d.Len())}; !reflect.DeepEqual(segs, want) {
		t.Fatalf("segments = %v, want %v", segs, want)
	}
	data, err := m.Layout().FS().ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"3"}
	for id := before; id < d.Len(); id++ {
		want = append(want, d.TermString(rdf.ID(id)))
	}
	if got := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n"); !reflect.DeepEqual(got, want) {
		t.Errorf("segment holds %q, want %q", got, want)
	}
	if got := dictBlocks(t, m.Layout()); !reflect.DeepEqual(got, blocks) {
		t.Errorf("a segment save rewrote dict.txt")
	}
}

// TestSaveDictAppendsAfterRestart: Load records how many terms are on
// storage, so the first save after a restart appends a segment instead
// of rewriting dict.txt, and the term IDs read back equal those before
// the restart. Segments fold into a new base once they outgrow it.
func TestSaveDictAppendsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	lay := diskLayout(t, dir)
	blocks := dictBlocks(t, lay)
	reload := func() *Layout {
		t.Helper()
		fs, err := dfs.OpenOnDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Load(fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	re := reload()
	for i := 0; i < 3; i++ {
		re.Dict.EncodeIRI(fmt.Sprintf("http://x/after-restart-%d", i))
	}
	saveStore(t, re)
	if got := dictBlocks(t, re); !reflect.DeepEqual(got, blocks) {
		t.Errorf("the first save after a restart rewrote dict.txt")
	}
	if segs := segments(re); len(segs) != 1 {
		t.Fatalf("segments after restart = %v, want one", segs)
	}
	terms := func(d *rdf.Dict) []string {
		out := make([]string, d.Len())
		for i := range out {
			out[i] = d.TermString(rdf.ID(i))
		}
		return out
	}
	want := terms(re.Dict)
	if got := terms(reload().Dict); !reflect.DeepEqual(got, want) {
		t.Fatalf("term IDs changed across a restart")
	}

	// Keep appending segments until they fold into a new base.
	re = reload()
	for i := 0; len(segments(re)) > 0; i++ {
		if i == 1000 {
			t.Fatal("segments never folded into the base")
		}
		re.Dict.EncodeIRI(fmt.Sprintf("http://x/grow-%d-%s", i, strings.Repeat("x", 40)))
		saveStore(t, re)
	}
	if got := dictBlocks(t, re); reflect.DeepEqual(got, blocks) {
		t.Error("the fold did not rewrite dict.txt")
	}
	want = terms(re.Dict)
	if got := terms(reload().Dict); !reflect.DeepEqual(got, want) {
		t.Fatalf("term IDs changed across the fold")
	}
}

// TestLoadRejectsDictSegmentGaps: a segment that does not start where
// the terms read so far end — a gap or an overlap — fails Load.
func TestLoadRejectsDictSegmentGaps(t *testing.T) {
	lay := diskLayout(t, t.TempDir())
	n := lay.Dict.Len()
	for _, tc := range []struct{ first, end int }{{n + 1, n + 2}, {n - 1, n}} {
		path := fmt.Sprintf(dictSegFmt, tc.first, tc.end)
		if err := lay.FS().WriteFile(path, []byte("1\n<http://x/stray>\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(lay.FS(), nil); err == nil {
			t.Errorf("Load accepted segment [%d, %d) after %d terms", tc.first, tc.end, n)
		}
		if err := lay.FS().Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(lay.FS(), nil); err != nil {
		t.Fatal(err)
	}
}
