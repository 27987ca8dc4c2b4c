package dfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// A disk-backed FS persists its namenode state as a base, manifest.json,
// plus an append-only log, manifest.log, so a save costs what changed:
//
//   - The first SaveManifest of a fresh FS writes the base: every file
//     with its block list, atomically (temp file, fsync, rename, directory
//     fsync).
//   - Every later save appends one record to the log — the paths
//     committed or removed since the previous save, with their block
//     lists, and next_block — framed by length and CRC-32, and fsyncs the
//     log once. The log file is created, with a directory fsync, on its
//     first append; after that a save creates and renames nothing.
//   - A save whose record would grow the log past compactRatio times the
//     base rewrites the base instead and retires the log.
//
// The log starts with the SHA-256 of the base it continues. OpenOnDisk
// replays the base, then — only if the log continues that base — the
// log's records up to the first that fails its framing. A torn tail
// therefore reopens at the previous save, and a crash between a
// compaction's new base and the retirement of the old log never replays
// an old record over the newer base.
//
// Blocks released between two saves are deleted only after the second
// is durable (see FS.releaseLocked), so no durable manifest names a
// deleted block. Block files themselves are not fsynced: as before, a
// save makes the namespace durable, not the data a crash may still lose.
const (
	manifestName = "manifest.json"
	logName      = "manifest.log"
	logMagic     = "PINGMLG1"
	// logHeaderLen is the magic plus the continued base's SHA-256.
	logHeaderLen = len(logMagic) + sha256.Size
	// frameHeaderLen is a record's payload length and CRC-32, both
	// little-endian uint32.
	frameHeaderLen = 8
	// compactRatio bounds the log at this multiple of the base, so
	// replay stays linear in the base. A record names only what one save
	// changed: a 200-triple batch on a 230 K-triple store appends about
	// a third of the base, so about one save in fifty compacts — far
	// from the tail of save latencies.
	compactRatio = 16
)

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

// logRecord is one save appended to the log: the state of every path
// committed since the previous save and the paths removed since then.
type logRecord struct {
	NextBlock uint64         `json:"next_block"`
	Files     []manifestFile `json:"files,omitempty"`
	Removed   []string       `json:"removed,omitempty"`
}

// manifestLog is the save-side state of the base and log; FS.saveMu
// guards it.
type manifestLog struct {
	// based is set once a base this FS wrote or replayed is on disk.
	based    bool
	baseHash [sha256.Size]byte
	baseSize int64
	// size is the length of the log replay accepts, header included (0:
	// no log continues the base yet).
	size int64
}

func toManifestFile(path string, meta fileMeta) manifestFile {
	mf := manifestFile{Path: path, Size: meta.size}
	for _, b := range meta.blocks {
		mf.Blocks = append(mf.Blocks, manifestBlock{
			ID: b.id, Size: b.size, Nodes: b.nodes,
			CRC: b.crc, HasCRC: b.hasCRC,
		})
	}
	return mf
}

// fromManifestFile converts a persisted entry back, checking its
// replica placements against the configured data nodes.
func (f *FS) fromManifestFile(mf manifestFile) (fileMeta, error) {
	meta := fileMeta{size: mf.Size}
	for _, b := range mf.Blocks {
		for _, n := range b.Nodes {
			if n < 0 || n >= f.cfg.DataNodes {
				return fileMeta{}, fmt.Errorf("dfs: manifest references node %d of %d", n, f.cfg.DataNodes)
			}
		}
		meta.blocks = append(meta.blocks, blockMeta{
			id: b.ID, size: b.Size, nodes: b.Nodes,
			crc: b.CRC, hasCRC: b.HasCRC,
		})
	}
	return meta, nil
}

// SaveManifest makes the namenode state durable. It only applies to
// disk-backed file systems (the in-memory backend has nothing durable to
// reopen). The first save writes the base; later saves append one
// record to the log (see the top of this file). Saves are serialized; a
// crash at any point leaves either the previous or the new state, and
// the blocks released since the previous save are deleted only once the
// new one is durable.
func (f *FS) SaveManifest() error {
	if f.disk == nil {
		return fmt.Errorf("dfs: SaveManifest requires an on-disk store")
	}
	f.saveMu.Lock()
	defer f.saveMu.Unlock()

	f.mu.Lock()
	dirty, pending, store := f.dirty, f.pendingDel, f.store
	f.dirty, f.pendingDel = make(map[string]struct{}), nil
	full := !f.mlog.based
	var rec logRecord
	if !full {
		rec.NextBlock = f.nextBlock
		for path := range dirty {
			if meta, ok := f.files[path]; ok {
				rec.Files = append(rec.Files, toManifestFile(path, meta))
			} else {
				rec.Removed = append(rec.Removed, path)
			}
		}
	}
	f.mu.Unlock()

	var err error
	if !full {
		frame := encodeRecord(rec)
		if f.mlog.size+int64(len(frame)) <= compactRatio*f.mlog.baseSize {
			err = f.appendRecord(frame)
		} else {
			full = true
		}
	}
	if full {
		err = f.writeBase()
	}
	if err != nil {
		// The save may not be durable: its paths stay dirty and its
		// released blocks stay queued for the next one, whose append
		// truncates whatever of this record reached the log.
		f.mu.Lock()
		for path := range dirty {
			f.dirty[path] = struct{}{}
		}
		f.pendingDel = append(pending, f.pendingDel...)
		f.mu.Unlock()
		return err
	}
	deleteBlocks(store, pending)
	return nil
}

// encodeRecord frames a record for the log. Paths are sorted so the same
// change always appends the same bytes.
func encodeRecord(rec logRecord) []byte {
	sort.Slice(rec.Files, func(i, j int) bool { return rec.Files[i].Path < rec.Files[j].Path })
	sort.Strings(rec.Removed)
	payload, err := json.Marshal(rec)
	if err != nil {
		panic(err) // plain structs of strings and integers always marshal
	}
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// writeBase rewrites manifest.json with the whole namespace and retires
// the log. Caller holds saveMu.
func (f *FS) writeBase() error {
	f.mu.RLock()
	m := manifest{Config: f.cfg, NextBlock: f.nextBlock}
	for path, meta := range f.files {
		m.Files = append(m.Files, toManifestFile(path, meta))
	}
	f.mu.RUnlock()
	// Files in path order: the same store always saves the same bytes.
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].Path < m.Files[j].Path })
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("dfs: %w", err)
	}
	if err := writeFileAtomic(f.disk.dir, manifestName, data); err != nil {
		return err
	}
	// The new base is durable. The old log's header names the previous
	// base, so removing it is housekeeping, not a commit step.
	_ = os.Remove(filepath.Join(f.disk.dir, logName))
	f.mlog = manifestLog{based: true, baseHash: sha256.Sum256(data), baseSize: int64(len(data))}
	return nil
}

// appendRecord appends one framed record to the log and fsyncs it. It
// first truncates the log to what replay accepted, dropping a torn tail
// a crash or a failed append left. The first record for a base starts
// the log with its header, and a directory fsync makes the log's entry
// durable. Caller holds saveMu.
func (f *FS) appendRecord(frame []byte) error {
	l := &f.mlog
	at := l.size
	if at == 0 {
		frame = append(append([]byte(logMagic), l.baseHash[:]...), frame...)
	}
	file, err := os.OpenFile(filepath.Join(f.disk.dir, logName), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("dfs: open manifest log: %w", err)
	}
	err = file.Truncate(at)
	if err == nil {
		_, err = file.WriteAt(frame, at)
	}
	if err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil && at == 0 {
		err = syncDir(f.disk.dir)
	}
	if err != nil {
		return fmt.Errorf("dfs: append manifest log: %w", err)
	}
	l.size = at + int64(len(frame))
	return nil
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
	return syncDir(dir)
}

// syncDir fsyncs a directory so entries created or renamed in it are
// durable.
func syncDir(dir string) error {
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
// saved with SaveManifest: it reads the base and replays the log that
// continues it.
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
		meta, err := fs.fromManifestFile(mf)
		if err != nil {
			return nil, err
		}
		fs.files[mf.Path] = meta
	}
	fs.mlog = manifestLog{based: true, baseHash: sha256.Sum256(data), baseSize: int64(len(data))}
	logData, err := os.ReadFile(filepath.Join(dir, logName))
	switch {
	case err == nil:
		if fs.mlog.size, err = fs.replayLog(logData); err != nil {
			return nil, err
		}
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("dfs: open manifest log: %w", err)
	}
	for _, meta := range fs.files {
		for _, b := range meta.blocks {
			for _, n := range b.nodes {
				fs.nodeBytes[n] += b.size
			}
		}
	}
	return fs, nil
}

// replayLog applies the records of a log that continues the replayed
// base, stopping at the first record that fails its framing (a torn
// tail), and returns the length of the log it accepted — 0 if the log
// continues another base. A well-framed record that does not decode or
// names an unknown node is corruption and an error.
func (f *FS) replayLog(data []byte) (int64, error) {
	if len(data) < logHeaderLen || string(data[:len(logMagic)]) != logMagic ||
		!bytes.Equal(data[len(logMagic):logHeaderLen], f.mlog.baseHash[:]) {
		return 0, nil
	}
	pos := logHeaderLen
	for len(data)-pos >= frameHeaderLen {
		n := binary.LittleEndian.Uint32(data[pos:])
		sum := binary.LittleEndian.Uint32(data[pos+4:])
		// Every record carries next_block, so an empty payload is a
		// zero-filled tail, not a record.
		if n == 0 || uint64(n) > uint64(len(data)-pos-frameHeaderLen) {
			break
		}
		payload := data[pos+frameHeaderLen : pos+frameHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec logRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return 0, fmt.Errorf("dfs: manifest log record at offset %d: %w", pos, err)
		}
		for _, mf := range rec.Files {
			meta, err := f.fromManifestFile(mf)
			if err != nil {
				return 0, err
			}
			f.files[mf.Path] = meta
		}
		for _, path := range rec.Removed {
			delete(f.files, path)
		}
		f.nextBlock = max(f.nextBlock, rec.NextBlock)
		pos += frameHeaderLen + int(n)
	}
	return int64(pos), nil
}
