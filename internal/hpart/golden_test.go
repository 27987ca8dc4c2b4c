package hpart

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ping/internal/dfs"
	"ping/internal/gmark"
)

var updateStoreGolden = flag.Bool("update-store-golden", false, "rewrite testdata/store.sha256")

// TestPartitionGoldenBytes pins the on-disk format: the SHA-256 of every
// file Partition + SaveDict + SaveManifest writes for a fixed small gmark
// graph — each block file and the manifest — must equal the values in
// testdata/store.sha256, and its Usage().PhysicalBytes must equal the
// value the same store had before the write path learned to append. A
// write-path optimisation that changes a single byte of a fresh store
// fails here. Regenerate (only for a deliberate format change) with
// -update-store-golden.
func TestPartitionGoldenBytes(t *testing.T) {
	g := gmark.Shop().Generate(0.02, 7).Graph
	dir := t.TempDir()
	store, err := dfs.NewOnDisk(dir, dfs.Config{DataNodes: 3, Replication: 2, BlockSize: 4096})
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
	if got := store.Usage().PhysicalBytes; got != 42064 {
		t.Errorf("PhysicalBytes = %d, want 42064", got)
	}
	var lines []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		lines = append(lines, fmt.Sprintf("%x  %s", sha256.Sum256(data), filepath.ToSlash(rel)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "store.sha256")
	if *updateStoreGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantSet := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantSet[l] = true
	}
	for _, l := range lines {
		if !wantSet[l] {
			t.Errorf("not in golden: %s", l)
		}
		delete(wantSet, l)
	}
	for l := range wantSet {
		t.Errorf("missing from store: %s", l)
	}
}
