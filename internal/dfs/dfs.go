// Package dfs implements a miniature distributed file system standing in
// for HDFS in the paper's stack. Files are split into fixed-size blocks,
// each block is replicated across a configurable number of simulated data
// nodes, and a namenode tracks the block map. Two block-store backends are
// provided: in-memory (default, used by tests and benchmarks) and on-disk
// (used by the CLI tools so partitions persist between runs).
//
// Like HDFS, the read path is fault tolerant: every block carries a CRC32
// checksum verified on read, and a failed or corrupt read fails over to
// the remaining replicas with capped exponential backoff between rounds.
// Corrupt replicas can optionally be re-written from a healthy copy
// (read-repair). Per-node health counters are surfaced through Usage so
// callers can observe which nodes are misbehaving. The faults package
// interposes on the BlockStore interface to inject deterministic failures
// for chaos testing.
//
// The partitioner writes level sub-partitions and indexes here; the query
// processor reads them back, and the harness uses the byte accounting for
// the storage-footprint (reduction factor) experiments.
package dfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ping/internal/obs"
	"ping/internal/obs/prof"
)

// Typed read-path errors. Failures returned by block reads wrap one of
// these so callers can distinguish corruption from unavailability with
// errors.Is.
var (
	// ErrBlockCorrupt marks a replica whose payload failed checksum
	// verification.
	ErrBlockCorrupt = errors.New("dfs: block corrupt")
	// ErrNodeDown marks a replica read rejected because the data node is
	// unavailable (used by fault injectors; a real backend surfaces its
	// own I/O errors, treated the same way by the failover loop).
	ErrNodeDown = errors.New("dfs: node down")
	// ErrNoHealthyReplica is returned when every replica of a block
	// failed after all retries.
	ErrNoHealthyReplica = errors.New("dfs: no healthy replica")
)

// Config controls block placement and the read retry policy.
type Config struct {
	// BlockSize is the maximum block payload size in bytes (default 1 MiB).
	BlockSize int64
	// Replication is the number of copies per block (default 1, clamped to
	// the number of data nodes).
	Replication int
	// DataNodes is the number of simulated data nodes (default 4, matching
	// the paper's 4-machine cluster).
	DataNodes int

	// MaxRetries is the number of extra failover rounds after the first
	// pass over the replicas fails (default 2; negative disables retries).
	MaxRetries int
	// RetryBase is the backoff before the first retry round; it doubles
	// every round up to RetryMax, with deterministic jitter (default
	// 500µs, capped at 50ms). Zero RetryBase keeps the defaults; retries
	// without sleeping require a negative RetryBase.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff (default 50ms).
	RetryMax time.Duration
	// ReadRepair re-writes replicas that failed checksum verification
	// from a healthy copy encountered during the same read.
	ReadRepair bool
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 1 << 20
	}
	if c.DataNodes <= 0 {
		c.DataNodes = 4
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.Replication > c.DataNodes {
		c.Replication = c.DataNodes
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase == 0 {
		c.RetryBase = 500 * time.Microsecond
	}
	if c.RetryBase < 0 {
		c.RetryBase = 0
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 50 * time.Millisecond
	}
	return c
}

// FileInfo describes a stored file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks int
}

// Usage summarizes cluster storage state and read-path health. The
// health counters (NodeReads, NodeReadErrors, BlocksRepaired,
// FailedBlockReads) are snapshot together under one lock, and each read
// attempt records its outcome in the same critical section, so a
// snapshot is consistent across nodes: it never shows an attempt whose
// success/failure outcome is missing, and NodeReadErrors[i] <=
// NodeReads[i] always holds.
type Usage struct {
	Files         int
	LogicalBytes  int64   // sum of file sizes
	PhysicalBytes int64   // logical × replication actually placed
	NodeBytes     []int64 // bytes per data node

	// NodeReads counts block read attempts per data node (including
	// failed ones); NodeReadErrors counts the failed or corrupt ones.
	NodeReads      []int64
	NodeReadErrors []int64
	// BlocksRepaired counts corrupt replicas re-written from a healthy
	// copy (read-repair).
	BlocksRepaired int64
	// FailedBlockReads counts block reads that exhausted every replica
	// and every retry.
	FailedBlockReads int64
}

// BlockStore abstracts where block payloads live. Implementations must be
// safe for concurrent use. The faults package wraps a BlockStore to
// inject deterministic failures.
type BlockStore interface {
	Put(node int, id uint64, data []byte) error
	Get(node int, id uint64) ([]byte, error)
	Del(node int, id uint64) error
}

type fileMeta struct {
	size   int64
	blocks []blockMeta
}

type blockMeta struct {
	id    uint64
	size  int64
	nodes []int // replica placements
	// crc is the CRC32 (IEEE) of the payload; hasCRC distinguishes a
	// genuine checksum from a pre-checksum manifest entry (legacy stores
	// reopened from disk are read unverified).
	crc    uint32
	hasCRC bool
}

// FS is the namenode plus its block store. All methods are safe for
// concurrent use.
type FS struct {
	cfg   Config
	store BlockStore

	mu        sync.RWMutex
	files     map[string]fileMeta
	nextBlock uint64
	nodeBytes []int64

	// disk is the block store of a disk-backed FS (nil in memory); its
	// namespace is made durable by SaveManifest (manifest.go). On such a
	// store mu also guards dirty, the paths committed or removed since
	// the last save, and pendingDel, the blocks released since then:
	// they are deleted only once a save that no longer names them is
	// durable, so a crash never leaves a manifest naming deleted blocks.
	disk       *diskStore
	dirty      map[string]struct{}
	pendingDel []blockMeta
	// saveMu serializes SaveManifest and guards mlog.
	saveMu sync.Mutex
	mlog   manifestLog

	bytesRead atomic.Int64

	// healthMu guards the read-path health counters as one unit so Usage
	// snapshots are consistent across nodes (see Usage).
	healthMu    sync.Mutex
	nodeReads   []int64
	nodeErrs    []int64
	repaired    int64
	failedReads int64

	// metrics mirrors the health counters into named obs series; swapped
	// atomically by SetMetrics.
	metrics atomic.Pointer[fsMetrics]
}

// fsMetrics holds the resolved obs handles for one registry, so hot-path
// recording is a single atomic add per event.
type fsMetrics struct {
	nodeReads   []*obs.Counter
	nodeErrs    []*obs.Counter
	retryRounds *obs.Counter
	failovers   *obs.Counter
	failedReads *obs.Counter
	repaired    *obs.Counter
	bytesRead   *obs.Counter
}

func newFSMetrics(reg *obs.Registry, nodes int) *fsMetrics {
	if reg == nil {
		return nil
	}
	reg.Describe("dfs_node_reads_total", "block read attempts per data node")
	reg.Describe("dfs_node_read_errors_total", "failed or corrupt block read attempts per data node")
	reg.Describe("dfs_retry_rounds_total", "extra failover rounds entered after a full replica pass failed")
	reg.Describe("dfs_failovers_total", "block reads that succeeded only after at least one replica attempt failed")
	reg.Describe("dfs_failed_block_reads_total", "block reads that exhausted every replica and retry")
	reg.Describe("dfs_blocks_repaired_total", "corrupt replicas re-written from a healthy copy")
	reg.Describe("dfs_bytes_read_total", "payload bytes served to readers")
	m := &fsMetrics{
		nodeReads:   make([]*obs.Counter, nodes),
		nodeErrs:    make([]*obs.Counter, nodes),
		retryRounds: reg.Counter("dfs_retry_rounds_total", nil),
		failovers:   reg.Counter("dfs_failovers_total", nil),
		failedReads: reg.Counter("dfs_failed_block_reads_total", nil),
		repaired:    reg.Counter("dfs_blocks_repaired_total", nil),
		bytesRead:   reg.Counter("dfs_bytes_read_total", nil),
	}
	for i := 0; i < nodes; i++ {
		labels := obs.Labels{"node": strconv.Itoa(i)}
		m.nodeReads[i] = reg.Counter("dfs_node_reads_total", labels)
		m.nodeErrs[i] = reg.Counter("dfs_node_read_errors_total", labels)
	}
	return m
}

// SetMetrics redirects the FS's named metrics to reg (nil disables
// them). New file systems default to obs.Default.
func (f *FS) SetMetrics(reg *obs.Registry) {
	f.metrics.Store(newFSMetrics(reg, f.cfg.DataNodes))
}

// New returns an in-memory file system.
func New(cfg Config) *FS {
	cfg = cfg.withDefaults()
	return newFS(cfg, newMemStore(cfg.DataNodes))
}

// NewOnDisk returns a file system whose blocks are persisted under dir,
// one subdirectory per simulated data node.
func NewOnDisk(dir string, cfg Config) (*FS, error) {
	cfg = cfg.withDefaults()
	ds, err := newDiskStore(dir, cfg.DataNodes)
	if err != nil {
		return nil, err
	}
	f := newFS(cfg, ds)
	f.disk = ds
	f.dirty = make(map[string]struct{})
	return f, nil
}

func newFS(cfg Config, store BlockStore) *FS {
	f := &FS{
		cfg:       cfg,
		store:     store,
		files:     make(map[string]fileMeta),
		nodeBytes: make([]int64, cfg.DataNodes),
		nodeReads: make([]int64, cfg.DataNodes),
		nodeErrs:  make([]int64, cfg.DataNodes),
	}
	f.metrics.Store(newFSMetrics(obs.Default, cfg.DataNodes))
	return f
}

// WrapStore replaces the block store with wrap(current store). It exists
// so fault injectors can interpose on block I/O; call it before the FS is
// shared between goroutines.
func (f *FS) WrapStore(wrap func(BlockStore) BlockStore) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.store = wrap(f.store)
}

func cleanPath(p string) string {
	return strings.TrimPrefix(filepath.ToSlash(filepath.Clean("/"+p)), "/")
}

// WriteFile stores data under path, replacing any existing file.
func (f *FS) WriteFile(path string, data []byte) error {
	w, err := f.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// ReadFile returns the whole content of path. It bypasses the streaming
// reader: blocks are assembled into one pre-sized buffer, which matters
// for workloads that open many small sub-partition files.
func (f *FS) ReadFile(path string) ([]byte, error) {
	return f.ReadFileCtx(context.Background(), path)
}

// ReadFileCtx is ReadFile honouring context cancellation: a cancelled or
// expired ctx aborts the read (including retry backoff sleeps) with
// ctx.Err(), so a stuck store cannot hang the caller past its deadline.
func (f *FS) ReadFileCtx(ctx context.Context, path string) ([]byte, error) {
	path = cleanPath(path)
	_, sp := obs.StartSpan(ctx, "dfs.read")
	defer sp.End()
	sp.SetAttr("path", path)
	f.mu.RLock()
	meta, ok := f.files[path]
	f.mu.RUnlock()
	if !ok {
		sp.SetAttr("error", "not found")
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	sp.SetAttr("blocks", len(meta.blocks))
	buf := make([]byte, 0, meta.size)
	for _, b := range meta.blocks {
		data, err := f.readBlock(ctx, b)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return nil, err
		}
		buf = append(buf, data...)
	}
	f.countBytesRead(int64(len(buf)))
	prof.LedgerFrom(ctx).AddStorageBytesRead(int64(len(buf)))
	sp.SetAttr("bytes", len(buf))
	return buf, nil
}

// countBytesRead records served payload bytes in both the local
// accounting and the named metric.
func (f *FS) countBytesRead(n int64) {
	f.bytesRead.Add(n)
	if m := f.metrics.Load(); m != nil {
		m.bytesRead.Add(n)
	}
}

// recordAttempt records one replica read attempt and its outcome in a
// single critical section, keeping Usage snapshots consistent.
func (f *FS) recordAttempt(node int, failed bool) {
	f.healthMu.Lock()
	f.nodeReads[node]++
	if failed {
		f.nodeErrs[node]++
	}
	f.healthMu.Unlock()
	if m := f.metrics.Load(); m != nil {
		m.nodeReads[node].Inc()
		if failed {
			m.nodeErrs[node].Inc()
		}
	}
}

// readBlock reads one block, verifying its checksum and failing over
// across replicas. Replicas are tried round-robin starting from a
// different offset each retry round; between rounds the backoff doubles
// from RetryBase up to RetryMax with deterministic jitter keyed by the
// block id, so concurrent readers of different blocks do not retry in
// lockstep.
func (f *FS) readBlock(ctx context.Context, b blockMeta) ([]byte, error) {
	f.mu.RLock()
	cfg := f.cfg
	store := f.store
	f.mu.RUnlock()

	var lastErr error
	var corrupt []int // replica indexes that served corrupt data
	failedAttempts := 0
	for round := 0; round <= cfg.MaxRetries; round++ {
		if round > 0 {
			if err := sleepBackoff(ctx, cfg, b.id, round); err != nil {
				return nil, err
			}
			if m := f.metrics.Load(); m != nil {
				m.retryRounds.Inc()
			}
		}
		for i := range b.nodes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			node := b.nodes[(i+round)%len(b.nodes)]
			data, err := store.Get(node, b.id)
			if err != nil {
				f.recordAttempt(node, true)
				failedAttempts++
				lastErr = err
				continue
			}
			if b.hasCRC && crc32.ChecksumIEEE(data) != b.crc {
				f.recordAttempt(node, true)
				failedAttempts++
				lastErr = fmt.Errorf("node %d: %w", node, ErrBlockCorrupt)
				corrupt = append(corrupt, node)
				continue
			}
			f.recordAttempt(node, false)
			if failedAttempts > 0 {
				// Success only after failover to another replica (or a
				// later retry round).
				if m := f.metrics.Load(); m != nil {
					m.failovers.Inc()
				}
			}
			if cfg.ReadRepair {
				f.repairReplicas(store, b, corrupt, data)
			}
			return data, nil
		}
	}
	f.healthMu.Lock()
	f.failedReads++
	f.healthMu.Unlock()
	if m := f.metrics.Load(); m != nil {
		m.failedReads.Inc()
	}
	if lastErr == nil {
		return nil, fmt.Errorf("dfs: block %d: %w", b.id, ErrNoHealthyReplica)
	}
	return nil, fmt.Errorf("dfs: block %d: %w (last error: %w)", b.id, ErrNoHealthyReplica, lastErr)
}

// repairReplicas re-writes replicas that served corrupt data with a
// verified copy. Repair failures are ignored: the node may be down, and
// the next read will fail over again.
func (f *FS) repairReplicas(store BlockStore, b blockMeta, corrupt []int, good []byte) {
	for _, node := range corrupt {
		if err := store.Put(node, b.id, good); err == nil {
			f.healthMu.Lock()
			f.repaired++
			f.healthMu.Unlock()
			if m := f.metrics.Load(); m != nil {
				m.repaired.Inc()
			}
		}
	}
}

// sleepBackoff sleeps for the round's backoff duration or until ctx is
// done. The jitter is deterministic — a hash of the block id and round —
// so retry schedules are reproducible under fault injection.
func sleepBackoff(ctx context.Context, cfg Config, id uint64, round int) error {
	d := cfg.RetryBase << (round - 1)
	if d > cfg.RetryMax {
		d = cfg.RetryMax
	}
	if d <= 0 {
		return ctx.Err()
	}
	// Jitter in [d/2, d]: full backoff minus a deterministic slice.
	half := d / 2
	d = half + time.Duration(mix64(id*0x9e3779b97f4a7c15+uint64(round))%uint64(half+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Create opens path for writing. The file becomes visible atomically when
// the returned writer is closed; a previous file at the same path is
// replaced at that point.
func (f *FS) Create(path string) (io.WriteCloser, error) {
	path = cleanPath(path)
	if path == "" {
		return nil, fmt.Errorf("dfs: empty path")
	}
	return &fileWriter{fs: f, path: path}, nil
}

type fileWriter struct {
	fs     *FS
	path   string
	buf    bytes.Buffer
	meta   fileMeta
	closed bool
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("dfs: write after close on %q", w.path)
	}
	n, _ := w.buf.Write(p)
	for int64(w.buf.Len()) >= w.fs.cfg.BlockSize {
		if err := w.flushBlock(w.fs.cfg.BlockSize); err != nil {
			return n, err
		}
	}
	return n, nil
}

func (w *fileWriter) flushBlock(size int64) error {
	data := make([]byte, size)
	if _, err := io.ReadFull(&w.buf, data); err != nil {
		return err
	}
	bm, err := w.fs.placeBlock(data)
	if err != nil {
		return err
	}
	w.meta.blocks = append(w.meta.blocks, bm)
	w.meta.size += size
	return nil
}

func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.buf.Len() > 0 {
		if err := w.flushBlock(int64(w.buf.Len())); err != nil {
			return err
		}
	}
	w.fs.commit(w.path, w.meta)
	return nil
}

// placeBlock writes one block to Replication nodes chosen round-robin.
func (f *FS) placeBlock(data []byte) (blockMeta, error) {
	f.mu.Lock()
	id := f.nextBlock
	f.nextBlock++
	nodes := make([]int, f.cfg.Replication)
	for i := range nodes {
		nodes[i] = int((id + uint64(i)) % uint64(f.cfg.DataNodes))
	}
	for _, n := range nodes {
		f.nodeBytes[n] += int64(len(data))
	}
	store := f.store
	f.mu.Unlock()
	for _, n := range nodes {
		if err := store.Put(n, id, data); err != nil {
			return blockMeta{}, err
		}
	}
	return blockMeta{
		id:     id,
		size:   int64(len(data)),
		nodes:  nodes,
		crc:    crc32.ChecksumIEEE(data),
		hasCRC: true,
	}, nil
}

func (f *FS) commit(path string, meta fileMeta) {
	f.mu.Lock()
	old, existed := f.files[path]
	f.files[path] = meta
	f.markDirtyLocked(path)
	var drop []blockMeta
	if existed {
		drop = f.releaseLocked(old)
	}
	store := f.store
	f.mu.Unlock()
	deleteBlocks(store, drop)
}

// markDirtyLocked records that path changed since the last save. Caller
// holds mu.
func (f *FS) markDirtyLocked(path string) {
	if f.dirty != nil {
		f.dirty[path] = struct{}{}
	}
}

// releaseLocked accounts for the blocks of a file that left the
// namespace and returns the ones to delete now. The in-memory store
// deletes them at once; a disk-backed store queues them for the next
// SaveManifest, which deletes them once its record is durable. Caller
// holds mu.
func (f *FS) releaseLocked(meta fileMeta) []blockMeta {
	for _, b := range meta.blocks {
		for _, n := range b.nodes {
			f.nodeBytes[n] -= b.size
		}
	}
	if f.disk != nil {
		f.pendingDel = append(f.pendingDel, meta.blocks...)
		return nil
	}
	return meta.blocks
}

func deleteBlocks(store BlockStore, blocks []blockMeta) {
	for _, b := range blocks {
		for _, n := range b.nodes {
			_ = store.Del(n, b.id)
		}
	}
}

// Open returns a reader over the file at path. The reader fails over
// across replicas like ReadFile; it reads with a background context.
func (f *FS) Open(path string) (io.ReadCloser, error) {
	path = cleanPath(path)
	f.mu.RLock()
	meta, ok := f.files[path]
	f.mu.RUnlock()
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return &fileReader{fs: f, meta: meta}, nil
}

type fileReader struct {
	fs   *FS
	meta fileMeta
	idx  int
	cur  *bytes.Reader
}

func (r *fileReader) Read(p []byte) (int, error) {
	for {
		if r.cur != nil && r.cur.Len() > 0 {
			n, _ := r.cur.Read(p)
			r.fs.countBytesRead(int64(n))
			return n, nil
		}
		if r.idx >= len(r.meta.blocks) {
			return 0, io.EOF
		}
		b := r.meta.blocks[r.idx]
		r.idx++
		data, err := r.fs.readBlock(context.Background(), b)
		if err != nil {
			return 0, err
		}
		r.cur = bytes.NewReader(data)
	}
}

func (r *fileReader) Close() error { return nil }

// Stat returns metadata for path.
func (f *FS) Stat(path string) (FileInfo, error) {
	path = cleanPath(path)
	f.mu.RLock()
	defer f.mu.RUnlock()
	meta, ok := f.files[path]
	if !ok {
		return FileInfo{}, &os.PathError{Op: "stat", Path: path, Err: os.ErrNotExist}
	}
	return FileInfo{Path: path, Size: meta.size, Blocks: len(meta.blocks)}, nil
}

// Exists reports whether a file exists at path.
func (f *FS) Exists(path string) bool {
	_, err := f.Stat(path)
	return err == nil
}

// List returns the files whose path starts with prefix, sorted by path.
func (f *FS) List(prefix string) []FileInfo {
	prefix = cleanPath(prefix)
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []FileInfo
	for p, meta := range f.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, FileInfo{Path: p, Size: meta.size, Blocks: len(meta.blocks)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Remove deletes the file at path and releases its blocks.
func (f *FS) Remove(path string) error {
	path = cleanPath(path)
	f.mu.Lock()
	meta, ok := f.files[path]
	var drop []blockMeta
	if ok {
		delete(f.files, path)
		f.markDirtyLocked(path)
		drop = f.releaseLocked(meta)
	}
	store := f.store
	f.mu.Unlock()
	if !ok {
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}
	deleteBlocks(store, drop)
	return nil
}

// Usage returns cluster storage statistics and read-path health
// counters. The health counters are copied in one critical section of
// the lock that also guards their updates, so the snapshot is consistent
// across nodes (see the Usage type documentation).
func (f *FS) Usage() Usage {
	f.mu.RLock()
	u := Usage{Files: len(f.files), NodeBytes: append([]int64(nil), f.nodeBytes...)}
	for _, meta := range f.files {
		u.LogicalBytes += meta.size
	}
	f.mu.RUnlock()
	for _, nb := range u.NodeBytes {
		u.PhysicalBytes += nb
	}
	f.healthMu.Lock()
	u.NodeReads = append([]int64(nil), f.nodeReads...)
	u.NodeReadErrors = append([]int64(nil), f.nodeErrs...)
	u.BlocksRepaired = f.repaired
	u.FailedBlockReads = f.failedReads
	f.healthMu.Unlock()
	return u
}

// BytesRead returns the cumulative bytes served to readers, an I/O metric
// surfaced by the benchmark harness.
func (f *FS) BytesRead() int64 {
	return f.bytesRead.Load()
}

// memStore keeps blocks in per-node maps.
type memStore struct {
	mu    sync.RWMutex
	nodes []map[uint64][]byte
}

func newMemStore(n int) *memStore {
	s := &memStore{nodes: make([]map[uint64][]byte, n)}
	for i := range s.nodes {
		s.nodes[i] = make(map[uint64][]byte)
	}
	return s
}

func (s *memStore) Put(node int, id uint64, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.nodes[node][id] = cp
	s.mu.Unlock()
	return nil
}

func (s *memStore) Get(node int, id uint64) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.nodes[node][id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("missing block %d on node %d", id, node)
	}
	return data, nil
}

func (s *memStore) Del(node int, id uint64) error {
	s.mu.Lock()
	delete(s.nodes[node], id)
	s.mu.Unlock()
	return nil
}

// diskStore persists blocks as files under dir/node<N>/<id>.blk.
type diskStore struct {
	dir string
}

func newDiskStore(dir string, n int) (*diskStore, error) {
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("node%d", i)), 0o755); err != nil {
			return nil, fmt.Errorf("dfs: %w", err)
		}
	}
	return &diskStore{dir: dir}, nil
}

// BlockPath returns where a replica of block id on node lives on disk.
// Exposed so corruption tests and offline tooling can reach block files.
func (s *diskStore) BlockPath(node int, id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("node%d", node), fmt.Sprintf("%016x.blk", id))
}

func (s *diskStore) Put(node int, id uint64, data []byte) error {
	return os.WriteFile(s.BlockPath(node, id), data, 0o644)
}

func (s *diskStore) Get(node int, id uint64) ([]byte, error) {
	return os.ReadFile(s.BlockPath(node, id))
}

func (s *diskStore) Del(node int, id uint64) error {
	err := os.Remove(s.BlockPath(node, id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// BlockLocations returns, for every block of path, the on-disk file of
// each replica. It only applies to disk-backed stores and exists for
// corruption tests and offline tooling.
func (f *FS) BlockLocations(path string) ([][]string, error) {
	f.mu.RLock()
	ds, ok := f.store.(*diskStore)
	meta, found := f.files[cleanPath(path)]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dfs: BlockLocations requires an on-disk store")
	}
	if !found {
		return nil, &os.PathError{Op: "stat", Path: path, Err: os.ErrNotExist}
	}
	out := make([][]string, len(meta.blocks))
	for i, b := range meta.blocks {
		for _, n := range b.nodes {
			out[i] = append(out[i], ds.BlockPath(n, b.id))
		}
	}
	return out, nil
}
