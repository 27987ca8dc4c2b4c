package dfs

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzReplayManifestLog hammers the log replay OpenOnDisk runs at every
// start of a store: no input may panic or allocate for records it does
// not carry, the accepted length never exceeds the input, and replaying
// just the accepted prefix yields the same namespace — a torn tail adds
// nothing.
func FuzzReplayManifestLog(f *testing.F) {
	cfg := Config{DataNodes: 3}.withDefaults()
	hash := sha256.Sum256([]byte("base"))
	header := append([]byte(logMagic), hash[:]...)
	f.Add(encodeRecord(logRecord{NextBlock: 2, Files: []manifestFile{
		{Path: "a", Size: 3, Blocks: []manifestBlock{{ID: 1, Size: 3, Nodes: []int{0, 2}, CRC: 7, HasCRC: true}}},
	}}))
	f.Add(append(encodeRecord(logRecord{NextBlock: 3, Removed: []string{"a"}}), 0xff, 0xff, 0xff, 0x7f))
	f.Add(make([]byte, 16))
	f.Add([]byte{})
	replay := func(data []byte) (*FS, int64, error) {
		fsys := newFS(cfg, newMemStore(cfg.DataNodes))
		fsys.mlog.baseHash = hash
		n, err := fsys.replayLog(data)
		return fsys, n, err
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		data := append(bytes.Clone(header), in...)
		fsys, n, err := replay(data)
		if err != nil {
			return
		}
		if n < int64(len(header)) || n > int64(len(data)) {
			t.Fatalf("accepted %d of %d bytes", n, len(data))
		}
		again, m, err := replay(data[:n])
		if err != nil || m != n {
			t.Fatalf("accepted prefix replays to %d, %v; want %d", m, err, n)
		}
		if len(again.files) != len(fsys.files) || again.nextBlock != fsys.nextBlock {
			t.Fatalf("accepted prefix replays to a different namespace")
		}
	})
}
