package dfs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewOnDisk(dir, Config{BlockSize: 64, DataNodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"levels/L01/p1.pcol": bytes.Repeat([]byte{1}, 200),
		"levels/L02/p1.pcol": bytes.Repeat([]byte{2}, 30),
		"indexes/vp.pcol":    bytes.Repeat([]byte{3}, 100),
	}
	for p, data := range files {
		if err := fs.WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.SaveManifest(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenOnDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range files {
		got, err := reopened.ReadFile(p)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: content mismatch after reopen", p)
		}
	}
	// Usage accounting must be rebuilt.
	u := reopened.Usage()
	if u.Files != len(files) {
		t.Errorf("Files = %d, want %d", u.Files, len(files))
	}
	if u.PhysicalBytes != 2*(200+30+100) {
		t.Errorf("PhysicalBytes = %d, want %d", u.PhysicalBytes, 2*330)
	}
	// New writes must not collide with old block IDs.
	if err := reopened.WriteFile("new.bin", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	for p, want := range files {
		got, _ := reopened.ReadFile(p)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: corrupted by post-reopen write", p)
		}
	}
}

// TestSaveManifestAtomic: SaveManifest replaces manifest.json by
// renaming a temp file over it, leaves no temp file behind, and a stray
// temp file from an interrupted save does not affect OpenOnDisk.
func TestSaveManifestAtomic(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewOnDisk(dir, Config{BlockSize: 64, DataNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"a.bin", "b.bin"} {
		if err := fs.WriteFile(p, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
		if err := fs.SaveManifest(); err != nil {
			t.Fatal(err)
		}
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, manifestName+".tmp-*"))
	if err != nil || len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v (%v)", leftovers, err)
	}
	stray := filepath.Join(dir, manifestName+".tmp-123")
	if err := os.WriteFile(stray, []byte(`{"files": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenOnDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Usage().Files; got != 2 {
		t.Fatalf("reopened store holds %d files, want 2", got)
	}
	if got, err := reopened.ReadFile("b.bin"); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{1}, 100)) {
		t.Fatalf("b.bin after reopen: %v", err)
	}
}

func TestSaveManifestRequiresDisk(t *testing.T) {
	fs := New(Config{})
	if err := fs.SaveManifest(); err == nil {
		t.Error("SaveManifest succeeded on in-memory FS")
	}
}

func TestOpenOnDiskErrors(t *testing.T) {
	if _, err := OpenOnDisk(t.TempDir()); err == nil {
		t.Error("OpenOnDisk succeeded without a manifest")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOnDisk(dir); err == nil {
		t.Error("OpenOnDisk accepted a corrupt manifest")
	}
	// Manifest referencing an out-of-range node.
	bad := `{"config":{"BlockSize":64,"Replication":1,"DataNodes":2},"next_block":1,` +
		`"files":[{"path":"f","size":4,"blocks":[{"id":0,"size":4,"nodes":[9]}]}]}`
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, manifestName), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOnDisk(dir2); err == nil {
		t.Error("OpenOnDisk accepted a manifest with invalid node placement")
	}
}
