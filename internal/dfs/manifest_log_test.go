package dfs

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
)

// namespace reads every file of fsys into memory.
func namespace(t *testing.T, fsys *FS) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, fi := range fsys.List("") {
		data, err := fsys.ReadFile(fi.Path)
		if err != nil {
			t.Fatalf("read %s: %v", fi.Path, err)
		}
		out[fi.Path] = data
	}
	return out
}

func reopen(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	fsys, err := OpenOnDisk(dir)
	if err != nil {
		t.Fatalf("OpenOnDisk: %v", err)
	}
	return namespace(t, fsys)
}

func sameNamespace(t *testing.T, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files, want %d", what, len(got), len(want))
	}
	for p, data := range want {
		if !bytes.Equal(got[p], data) {
			t.Fatalf("%s: %s differs", what, p)
		}
	}
}

// copyDir copies a store directory, the state a crash would leave.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// putLog replaces a store's log. It removes the old file first: writing
// over a file truncated to zero makes some file systems flush on close,
// which costs tens of milliseconds per call.
func putLog(t *testing.T, dir string, data []byte) {
	t.Helper()
	path := filepath.Join(dir, logName)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func newSmallDisk(t *testing.T, dir string) *FS {
	t.Helper()
	fsys, err := NewOnDisk(dir, Config{BlockSize: 64, DataNodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func mustWrite(t *testing.T, fsys *FS, path string, data []byte) {
	t.Helper()
	if err := fsys.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
}

func mustSave(t *testing.T, fsys *FS) {
	t.Helper()
	if err := fsys.SaveManifest(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestLogTornTail: the crash-consistency contract of the log. A
// crash during the last save leaves the blocks that save released on
// disk and some prefix of its record in the log. For every such prefix —
// each byte offset inside the last record — and for every single flipped
// byte of it, reopening yields exactly the previous save's files, byte
// for byte; the whole record yields the last save's.
func TestManifestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	fsys := newSmallDisk(t, dir)
	mustWrite(t, fsys, "a", bytes.Repeat([]byte{1}, 150))
	mustWrite(t, fsys, "b", bytes.Repeat([]byte{2}, 70))
	mustSave(t, fsys) // base
	mustWrite(t, fsys, "c", bytes.Repeat([]byte{3}, 90))
	mustSave(t, fsys) // first record
	prev := namespace(t, fsys)
	mustWrite(t, fsys, "a", bytes.Repeat([]byte{4}, 100)) // overwrite
	if err := fsys.Remove("b"); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, fsys, "d", bytes.Repeat([]byte{5}, 10))
	crash := copyDir(t, dir) // every block of both saves is still on disk
	logPath := filepath.Join(dir, logName)
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, fsys)
	last := namespace(t, fsys)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full[:len(before)], before) || len(full) <= len(before) {
		t.Fatalf("the save did not append to the log (%d -> %d bytes)", len(before), len(full))
	}
	for cut := len(before); cut < len(full); cut++ {
		putLog(t, crash, full[:cut])
		sameNamespace(t, fmt.Sprintf("log cut at %d", cut), reopen(t, crash), prev)
	}
	for i := len(before); i < len(full); i++ {
		flipped := bytes.Clone(full)
		flipped[i] ^= 0x20
		putLog(t, crash, flipped)
		sameNamespace(t, fmt.Sprintf("byte %d flipped", i), reopen(t, crash), prev)
	}
	putLog(t, crash, full)
	sameNamespace(t, "whole log", reopen(t, crash), last)

	// A store reopened over a torn tail appends after the accepted
	// prefix: the tail is dropped, not read as part of the next record.
	putLog(t, crash, full[:len(full)-3])
	re, err := OpenOnDisk(crash)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, re, "e", []byte("after the crash"))
	mustSave(t, re)
	want := namespace(t, re)
	sameNamespace(t, "save after torn tail", reopen(t, crash), want)
}

// TestManifestCompactionCrash: compaction writes a new base and then
// retires the old log. A crash between the two leaves the old log, whose
// records predate the new base; reopening must ignore it.
func TestManifestCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	fsys := newSmallDisk(t, dir)
	mustWrite(t, fsys, "keep", []byte("kept"))
	mustSave(t, fsys)
	logPath := filepath.Join(dir, logName)
	var oldLog []byte
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("the log never compacted")
		}
		mustWrite(t, fsys, fmt.Sprintf("f%d", i%5), []byte(fmt.Sprintf("gen %d", i)))
		if i%5 == 4 {
			if err := fsys.Remove("f2"); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(logPath)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		mustSave(t, fsys)
		if _, err := os.Stat(logPath); os.IsNotExist(err) && len(data) > 0 {
			oldLog = data // this save compacted: the log it retired
			break
		}
	}
	want := namespace(t, fsys)
	sameNamespace(t, "after compaction", reopen(t, dir), want)
	// The crash: the old log was never retired.
	putLog(t, dir, oldLog)
	sameNamespace(t, "stale log beside the new base", reopen(t, dir), want)
	// And the first append after reopening starts a fresh log for the
	// new base.
	re, err := OpenOnDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, re, "late", []byte("written after reopen"))
	mustSave(t, re)
	sameNamespace(t, "append after stale log", reopen(t, dir), namespace(t, re))
}

// TestManifestParentFormatOpens: a store saved once holds only
// manifest.json in the single-file format; it opens unchanged, and its
// first later save starts the log beside it.
func TestManifestParentFormatOpens(t *testing.T) {
	dir := t.TempDir()
	base := `{
 "config": {"BlockSize": 64, "Replication": 1, "DataNodes": 2},
 "next_block": 1,
 "files": [{"path": "f", "size": 4, "blocks": [{"id": 0, "size": 4, "nodes": [0]}]}]
}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("node%d", n)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "node0", fmt.Sprintf("%016x.blk", 0)), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	fsys, err := OpenOnDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameNamespace(t, "parent format", namespace(t, fsys), map[string][]byte{"f": []byte("data")})
	mustWrite(t, fsys, "g", []byte("new"))
	mustSave(t, fsys)
	if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); string(got) != base {
		t.Error("the append rewrote the base")
	}
	sameNamespace(t, "after append", reopen(t, dir), map[string][]byte{"f": []byte("data"), "g": []byte("new")})
}

// TestSaveManifestAppendsOnly counts the write path: a save that does not
// compact leaves manifest.json's inode and bytes alone and grows the log
// by at most a constant per path it changed, however large the store.
func TestSaveManifestAppendsOnly(t *testing.T) {
	dir := t.TempDir()
	fsys := newSmallDisk(t, dir)
	for i := 0; i < 200; i++ {
		mustWrite(t, fsys, fmt.Sprintf("levels/f%03d", i), bytes.Repeat([]byte{byte(i)}, 100))
	}
	mustSave(t, fsys)
	basePath := filepath.Join(dir, manifestName)
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	inode := func() uint64 {
		st, err := os.Stat(basePath)
		if err != nil {
			t.Fatal(err)
		}
		return st.Sys().(*syscall.Stat_t).Ino
	}
	ino := inode()
	logSize := func() int64 {
		st, err := os.Stat(filepath.Join(dir, logName))
		if os.IsNotExist(err) {
			return 0
		}
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	// Each changed path here has two blocks of two replicas; its record
	// entry stays under perPath bytes.
	const perPath, perSave = 400, 64 + logHeaderLen
	for round := 0; round < 10; round++ {
		changed := 1 + round%3
		for i := 0; i < changed; i++ {
			mustWrite(t, fsys, fmt.Sprintf("levels/f%03d", round*7+i), bytes.Repeat([]byte{byte(round)}, 100))
		}
		if round%4 == 3 {
			if err := fsys.Remove(fmt.Sprintf("levels/f%03d", 150+round)); err != nil {
				t.Fatal(err)
			}
			changed++
		}
		before := logSize()
		mustSave(t, fsys)
		if grew := logSize() - before; grew <= 0 || grew > int64(changed*perPath+perSave) {
			t.Errorf("round %d: log grew %d bytes for %d changed paths", round, grew, changed)
		}
		if inode() != ino {
			t.Fatalf("round %d: manifest.json was replaced", round)
		}
		if got, _ := os.ReadFile(basePath); !bytes.Equal(got, baseBytes) {
			t.Fatalf("round %d: manifest.json was rewritten", round)
		}
	}
	// A save with nothing changed appends a record of next_block alone.
	before := logSize()
	mustSave(t, fsys)
	if grew := logSize() - before; grew > int64(perSave) {
		t.Errorf("empty save grew the log by %d bytes", grew)
	}
	sameNamespace(t, "reopen", reopen(t, dir), namespace(t, fsys))
}

// TestDeferredBlockDeletes: blocks a write releases stay on disk until a
// save that no longer names them is durable. Reopening from disk at any
// moment — after each write and before each save, as a crash would —
// must read every file the reopened manifest names.
func TestDeferredBlockDeletes(t *testing.T) {
	dir := t.TempDir()
	fsys := newSmallDisk(t, dir)
	rng := rand.New(rand.NewSource(5))
	paths := []string{"a", "b", "c", "d"}
	for _, p := range paths {
		mustWrite(t, fsys, p, []byte(p))
	}
	mustSave(t, fsys)
	for step := 0; step < 60; step++ {
		p := paths[rng.Intn(len(paths))]
		if fsys.Exists(p) && rng.Intn(3) == 0 {
			if err := fsys.Remove(p); err != nil {
				t.Fatal(err)
			}
		} else {
			mustWrite(t, fsys, p, bytes.Repeat([]byte{byte(step)}, 1+rng.Intn(200)))
		}
		reopen(t, dir) // fails if a named block was deleted
		if rng.Intn(3) == 0 {
			mustSave(t, fsys)
			sameNamespace(t, fmt.Sprintf("step %d", step), reopen(t, dir), namespace(t, fsys))
		}
	}
	mustSave(t, fsys)
	// Once saved, the released blocks are gone: the disk holds exactly
	// the blocks of the namespace.
	var onDisk int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".blk" {
			info, err := d.Info()
			if err != nil {
				return err
			}
			onDisk += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if u := fsys.Usage(); onDisk != u.PhysicalBytes {
		t.Errorf("block files hold %d bytes, namespace places %d", onDisk, u.PhysicalBytes)
	}
}

// TestSaveManifestConcurrent (run it under -race): goroutines interleave
// commits, removes and saves on one FS. Saves are serialized, so after
// the last one returns the reopened store equals the in-memory
// namespace, and no block it names has been deleted.
func TestSaveManifestConcurrent(t *testing.T) {
	dir := t.TempDir()
	fsys := newSmallDisk(t, dir)
	mustSave(t, fsys)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				p := fmt.Sprintf("w%d/f%d", w, rng.Intn(6))
				var err error
				switch rng.Intn(4) {
				case 0:
					if err = fsys.Remove(p); os.IsNotExist(err) {
						err = nil
					}
				case 1:
					err = fsys.SaveManifest()
				default:
					err = fsys.WriteFile(p, bytes.Repeat([]byte{byte(w), byte(i)}, 1+rng.Intn(100)))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mustSave(t, fsys)
	sameNamespace(t, "after concurrent saves", reopen(t, dir), namespace(t, fsys))
}
