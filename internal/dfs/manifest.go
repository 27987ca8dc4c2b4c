package dfs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// manifestName is where a disk-backed FS persists its namenode state so a
// later process can reopen the store.
const manifestName = "manifest.json"

type manifestFile struct {
	Path   string          `json:"path"`
	Size   int64           `json:"size"`
	Blocks []manifestBlock `json:"blocks"`
}

type manifestBlock struct {
	ID    uint64 `json:"id"`
	Size  int64  `json:"size"`
	Nodes []int  `json:"nodes"`
	// CRC is the block payload checksum; HasCRC distinguishes a real
	// checksum from a manifest written before checksums existed (those
	// blocks are read unverified).
	CRC    uint32 `json:"crc,omitempty"`
	HasCRC bool   `json:"has_crc,omitempty"`
}

type manifest struct {
	Config    Config         `json:"config"`
	NextBlock uint64         `json:"next_block"`
	Files     []manifestFile `json:"files"`
}

// SaveManifest persists the namenode state. It only applies to disk-backed
// file systems (the in-memory backend has nothing durable to reopen). The
// manifest is replaced atomically: a crash mid-save leaves either the old
// or the new manifest, never a truncated one.
func (f *FS) SaveManifest() error {
	ds, ok := f.store.(*diskStore)
	if !ok {
		return fmt.Errorf("dfs: SaveManifest requires an on-disk store")
	}
	f.mu.RLock()
	m := manifest{Config: f.cfg, NextBlock: f.nextBlock}
	for path, meta := range f.files {
		mf := manifestFile{Path: path, Size: meta.size}
		for _, b := range meta.blocks {
			mf.Blocks = append(mf.Blocks, manifestBlock{
				ID: b.id, Size: b.size, Nodes: b.nodes,
				CRC: b.crc, HasCRC: b.hasCRC,
			})
		}
		m.Files = append(m.Files, mf)
	}
	f.mu.RUnlock()
	// Files in path order: the same store always saves the same bytes.
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].Path < m.Files[j].Path })
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("dfs: %w", err)
	}
	return writeFileAtomic(ds.dir, manifestName, data)
}

// writeFileAtomic replaces dir/name with data: it writes and fsyncs a
// temp file in dir, renames it over name, and fsyncs dir so the rename
// itself is durable.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("dfs: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		return fmt.Errorf("dfs: save %s: %w", name, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("dfs: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("dfs: sync %s: %w", dir, err)
	}
	return nil
}

// OpenOnDisk reopens a disk-backed file system previously populated and
// saved with SaveManifest.
func OpenOnDisk(dir string) (*FS, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("dfs: open manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dfs: parse manifest: %w", err)
	}
	fs, err := NewOnDisk(dir, m.Config)
	if err != nil {
		return nil, err
	}
	fs.nextBlock = m.NextBlock
	for _, mf := range m.Files {
		meta := fileMeta{size: mf.Size}
		for _, b := range mf.Blocks {
			meta.blocks = append(meta.blocks, blockMeta{
				id: b.ID, size: b.Size, nodes: b.Nodes,
				crc: b.CRC, hasCRC: b.HasCRC,
			})
			for _, n := range b.Nodes {
				if n < 0 || n >= len(fs.nodeBytes) {
					return nil, fmt.Errorf("dfs: manifest references node %d of %d", n, len(fs.nodeBytes))
				}
				fs.nodeBytes[n] += b.Size
			}
		}
		fs.files[mf.Path] = meta
	}
	return fs, nil
}
