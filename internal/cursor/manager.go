package cursor

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"ping/internal/dfs"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/ping"
)

var (
	// ErrNotFound: no cursor with that ID exists (expired, completed, or
	// never created).
	ErrNotFound = errors.New("cursor: not found")
	// ErrBusy: the cursor is being resumed by another request right now.
	// Cursors are single-writer: two concurrent resumes of one lineage
	// would double-run steps and double-count workload latency.
	ErrBusy = errors.New("cursor: resume already in flight")
	// ErrTooMany: the in-memory cursor table is full and no disk layer
	// is configured to overflow into.
	ErrTooMany = errors.New("cursor: too many open cursors")
)

// Config parameterizes a Manager. The zero value of every field has a
// usable default except FS/Store, which are optional capabilities.
type Config struct {
	// FS, when non-nil, is the durable layer: idle cursors hibernate to
	// <Dir>/<id>.cur and survive a process restart. Nil keeps cursors
	// memory-only.
	FS *dfs.FS
	// Dir is the FS directory for hibernated records (default "cursors").
	Dir string
	// TTL bounds a lineage's total idle lifetime and its epoch lease
	// (default 15m). After TTL with no resume the cursor is dropped and
	// its lease released — an abandoned cursor can never block GC.
	TTL time.Duration
	// IdleEvict is the in-memory idle time before a cursor hibernates
	// to FS (default 1m; ignored without FS).
	IdleEvict time.Duration
	// MaxCursors caps the in-memory table (default 1024). Overflow
	// hibernates the least-recently-used idle cursor, or fails Create
	// with ErrTooMany when there is no FS.
	MaxCursors int
	// Store, when non-nil, issues TTL epoch leases so paused runs keep
	// their snapshot alive across segments.
	Store *hpart.Store
	// Metrics receives the cursor_* series (default obs.Default).
	Metrics *obs.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
	// Persist, when non-nil, runs after hibernation writes (e.g.
	// dfs.FS.SaveManifest, so records are findable after restart).
	Persist func() error
}

// Manager owns the cursor table: creation, token checkout, idle
// eviction to disk, TTL expiry, and shutdown hibernation.
type Manager struct {
	cfg Config
	met *metrics

	mu      sync.Mutex
	cursors map[[16]byte]*entry
}

// entry is one lineage. rec is nil while the record lives only on disk
// (the lease, if any, stays in memory — leases are process-local).
type entry struct {
	rec    *Record
	lease  *hpart.Lease
	busy   bool
	onDisk bool
}

type metrics struct {
	created    *obs.Counter
	resumed    *obs.Counter
	restarted  *obs.Counter
	expired    *obs.Counter
	hibernated *obs.Counter
	completed  *obs.Counter
	active     *obs.Gauge
}

// New builds a Manager from cfg, applying defaults.
func New(cfg Config) *Manager {
	if cfg.Dir == "" {
		cfg.Dir = "cursors"
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Minute
	}
	if cfg.IdleEvict <= 0 {
		cfg.IdleEvict = time.Minute
	}
	if cfg.MaxCursors <= 0 {
		cfg.MaxCursors = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	reg.Describe("cursor_created_total", "query cursors created by a budget or disconnect pause")
	reg.Describe("cursor_resumed_total", "cursor checkouts that continued a paused lineage")
	reg.Describe("cursor_restarted_total", "resumes whose snapshot was gone; the lineage restarted from scratch")
	reg.Describe("cursor_expired_total", "cursors dropped after their TTL with no resume")
	reg.Describe("cursor_hibernated_total", "cursor records written to the dfs layer")
	reg.Describe("cursor_completed_total", "lineages that reached their final step and were retired")
	reg.Describe("cursors_active", "live cursors (in memory or hibernated with a live lease)")
	return &Manager{
		cfg: cfg,
		met: &metrics{
			created:    reg.Counter("cursor_created_total", nil),
			resumed:    reg.Counter("cursor_resumed_total", nil),
			restarted:  reg.Counter("cursor_restarted_total", nil),
			expired:    reg.Counter("cursor_expired_total", nil),
			hibernated: reg.Counter("cursor_hibernated_total", nil),
			completed:  reg.Counter("cursor_completed_total", nil),
			active:     reg.Gauge("cursors_active", nil),
		},
		cursors: make(map[[16]byte]*entry),
	}
}

// TTL returns the configured lineage (and epoch lease) lifetime.
func (m *Manager) TTL() time.Duration { return m.cfg.TTL }

// Lease pins the store's current snapshot under a cursor-TTL lease, or
// returns (nil, nil) when no store is configured (plain layouts never
// change, so resumes validate by signature alone).
func (m *Manager) Lease() (*hpart.Lease, *hpart.Layout) {
	if m.cfg.Store == nil {
		return nil, nil
	}
	return m.cfg.Store.PinLease(m.cfg.TTL)
}

// Handle is a checked-out cursor: exclusive access to one lineage
// between Checkout/Create and Pause/Complete/Abort.
type Handle struct {
	m   *Manager
	id  [16]byte
	rec *Record
}

// NewID draws a random 128-bit cursor ID. Handlers allocate the ID
// before the run starts, so the tokens stamped on step lines already
// name the cursor a later pause will create.
func NewID() ([16]byte, error) {
	var id [16]byte
	if _, err := rand.Read(id[:]); err != nil {
		return id, fmt.Errorf("cursor: id: %w", err)
	}
	return id, nil
}

// Create registers a new paused lineage. rec must carry the ID, the
// checkpoint, and the first segment's bookkeeping; the manager stamps
// the timestamps and takes ownership of lease (which may be nil). The
// returned handle is NOT busy — the run is over and the cursor is
// immediately resumable.
func (m *Manager) Create(rec *Record, lease *hpart.Lease) (*Handle, error) {
	if rec == nil || rec.Checkpoint.StepsDone < 1 {
		lease.Release()
		return nil, fmt.Errorf("cursor: record has no completed steps")
	}
	now := m.cfg.Now().UnixNano()
	rec.Created, rec.LastUsed = now, now
	if rec.Segments == 0 {
		rec.Segments = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.makeRoomLocked(); err != nil {
		lease.Release()
		return nil, err
	}
	m.cursors[rec.ID] = &entry{rec: rec, lease: lease}
	m.met.created.Inc()
	if rec.Restarted {
		m.met.restarted.Inc()
	}
	m.met.active.Set(float64(len(m.cursors)))
	return &Handle{m: m, id: rec.ID, rec: rec}, nil
}

// makeRoomLocked hibernates the least-recently-used idle cursor when
// the table is full, or reports ErrTooMany when it cannot.
func (m *Manager) makeRoomLocked() error {
	inMem := 0
	var lruID [16]byte
	var lru *entry
	for id, e := range m.cursors {
		if e.rec == nil {
			continue // already on disk: no memory pressure
		}
		inMem++
		if !e.busy && (lru == nil || e.rec.LastUsed < lru.rec.LastUsed) {
			lruID, lru = id, e
		}
	}
	if inMem < m.cfg.MaxCursors {
		return nil
	}
	if m.cfg.FS == nil || lru == nil {
		return ErrTooMany
	}
	if err := m.hibernateLocked(lruID, lru); err != nil {
		return err
	}
	return m.persistLocked()
}

// Checkout takes exclusive hold of the cursor a token names, reloading
// it from disk if it is hibernated (including after a process restart,
// when the in-memory table starts empty).
func (m *Manager) Checkout(token string) (*Handle, error) {
	id, step, err := ParseToken(token)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.cursors[id]
	if e == nil || e.rec == nil {
		rec, err := m.loadRecord(id)
		if err != nil {
			return nil, err
		}
		if e == nil {
			e = &entry{onDisk: true}
			m.cursors[id] = e
			m.met.active.Set(float64(len(m.cursors)))
		}
		e.rec = rec
	}
	if m.cfg.Now().UnixNano()-e.rec.LastUsed > int64(m.cfg.TTL) {
		m.dropLocked(id, e)
		m.met.expired.Inc()
		return nil, ErrNotFound
	}
	if e.busy {
		return nil, ErrBusy
	}
	// A token from any step up to the checkpoint resumes from the
	// checkpoint (answers are cumulative, so a client that saw step k
	// loses nothing by resuming at k' > k). A token claiming a FUTURE
	// step cannot have come from this lineage.
	if step > e.rec.Checkpoint.StepsDone {
		return nil, fmt.Errorf("%w: token step %d beyond checkpoint step %d",
			ErrBadToken, step, e.rec.Checkpoint.StepsDone)
	}
	e.busy = true
	e.rec.LastUsed = m.cfg.Now().UnixNano()
	m.met.resumed.Inc()
	return &Handle{m: m, id: id, rec: e.rec}, nil
}

// loadRecord reads and validates a hibernated record. Callers hold m.mu.
func (m *Manager) loadRecord(id [16]byte) (*Record, error) {
	if m.cfg.FS == nil || !m.cfg.FS.Exists(m.path(id)) {
		return nil, ErrNotFound
	}
	data, err := m.cfg.FS.ReadFile(m.path(id))
	if err != nil {
		return nil, fmt.Errorf("cursor: read hibernated record: %w", err)
	}
	rec, err := DecodeRecord(data)
	if err != nil {
		return nil, err
	}
	if rec.ID != id {
		return nil, fmt.Errorf("%w: record/path id mismatch", ErrBadRecord)
	}
	return rec, nil
}

// Checkpoint returns the resumable state. Valid only while checked out
// or immediately after Create.
func (h *Handle) Checkpoint() *ping.Checkpoint { return &h.rec.Checkpoint }

// Record returns the lineage bookkeeping (segments, latency, restart
// flag, fingerprint).
func (h *Handle) Record() *Record { return h.rec }

// Token returns the client token for the lineage's step s.
func (h *Handle) Token(step int) string { return Token(h.id, step) }

// Lease returns the lineage's epoch lease (nil if none, after a
// restart — leases are process-local — or for a nil handle).
func (h *Handle) Lease() *hpart.Lease {
	if h == nil {
		return nil
	}
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if e := h.m.cursors[h.id]; e != nil {
		return e.lease
	}
	return nil
}

// Pause parks the lineage again after a resumed segment: the new
// checkpoint replaces the old, the segment's latency is added, and the
// cursor becomes resumable. restarted and lease describe a lineage that
// lost its snapshot mid-resume and restarted on a freshly leased one
// (the old lease, if any, is released).
func (h *Handle) Pause(cp *ping.Checkpoint, latency time.Duration, restarted bool, lease *hpart.Lease) {
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.cursors[h.id]
	if e == nil {
		lease.Release()
		return
	}
	h.rec.Checkpoint = *cp
	h.rec.Segments++
	h.rec.LatencyNS += int64(latency)
	h.rec.LastUsed = m.cfg.Now().UnixNano()
	if restarted {
		h.rec.Restarted = true
		m.met.restarted.Inc()
	}
	if restarted || lease != nil {
		e.lease.Release()
		e.lease = lease
	}
	e.rec = h.rec
	e.busy = false
	e.onDisk = false // the disk copy, if any, is stale now
}

// Complete retires the lineage after its final step: the cursor and any
// disk record are removed, the lease released, and the finished Record
// (with the final segment's latency folded in) returned for a single
// workload observation.
func (h *Handle) Complete(latency time.Duration) *Record {
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	h.rec.Segments++
	h.rec.LatencyNS += int64(latency)
	if e := m.cursors[h.id]; e != nil {
		m.dropLocked(h.id, e)
		m.met.completed.Inc()
	}
	return h.rec
}

// Abort releases the busy hold without changing the lineage (the resume
// attempt failed or was shed before completing any step). A nil handle
// is a no-op.
func (h *Handle) Abort() {
	if h == nil {
		return
	}
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.cursors[h.id]; e != nil {
		e.busy = false
	}
}

// Sweep hibernates idle cursors and expires dead ones; pingd calls it
// periodically. It returns (hibernated, expired).
func (m *Manager) Sweep() (hibernated, expired int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now().UnixNano()
	wrote := false
	for id, e := range m.cursors {
		if e.busy {
			continue
		}
		var lastUsed int64
		if e.rec != nil {
			lastUsed = e.rec.LastUsed
		} else if e.lease != nil && !e.lease.Valid() {
			// On-disk record whose lease already expired: the snapshot is
			// gone, but the record stays resumable (restart path) until
			// its own TTL — which we cannot check without reading it.
			// Leave it; Checkout enforces the TTL on load.
			continue
		} else {
			continue
		}
		if now-lastUsed > int64(m.cfg.TTL) {
			m.dropLocked(id, e)
			m.met.expired.Inc()
			expired++
			continue
		}
		if m.cfg.FS != nil && !e.onDisk && now-lastUsed > int64(m.cfg.IdleEvict) {
			if err := m.hibernateLocked(id, e); err == nil {
				hibernated++
				wrote = true
			}
		}
	}
	if wrote {
		m.persistLocked() //nolint:errcheck // best-effort; records rewritten next sweep
	}
	return hibernated, expired
}

// HibernateAll writes every idle cursor to disk — the shutdown path, so
// lineages survive the restart. Busy cursors (still draining) are
// skipped; the server drains before calling this.
func (m *Manager) HibernateAll() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.FS == nil {
		return 0, nil
	}
	n := 0
	var firstErr error
	for id, e := range m.cursors {
		if e.busy || e.rec == nil || e.onDisk {
			continue
		}
		if err := m.hibernateLocked(id, e); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	if err := m.persistLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	return n, firstErr
}

// hibernateLocked writes one record to the dfs layer and frees its
// in-memory copy.
func (m *Manager) hibernateLocked(id [16]byte, e *entry) error {
	if err := m.cfg.FS.WriteFile(m.path(id), EncodeRecord(e.rec)); err != nil {
		return fmt.Errorf("cursor: hibernate: %w", err)
	}
	e.rec = nil
	e.onDisk = true
	m.met.hibernated.Inc()
	return nil
}

func (m *Manager) persistLocked() error {
	if m.cfg.Persist == nil {
		return nil
	}
	return m.cfg.Persist()
}

// dropLocked removes a cursor entirely: memory, lease, disk record.
func (m *Manager) dropLocked(id [16]byte, e *entry) {
	e.lease.Release()
	delete(m.cursors, id)
	if m.cfg.FS != nil && m.cfg.FS.Exists(m.path(id)) {
		m.cfg.FS.Remove(m.path(id)) //nolint:errcheck // orphan files are harmless
	}
	m.met.active.Set(float64(len(m.cursors)))
}

func (m *Manager) path(id [16]byte) string {
	return m.cfg.Dir + "/" + hex.EncodeToString(id[:]) + ".cur"
}

// Stats describes the cursor table for /stats.
type Stats struct {
	Active     int `json:"active"`
	InMemory   int `json:"in_memory"`
	Hibernated int `json:"hibernated"`
	Busy       int `json:"busy"`
}

// Stats snapshots the cursor table.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Active: len(m.cursors)}
	for _, e := range m.cursors {
		if e.rec != nil {
			st.InMemory++
		} else {
			st.Hibernated++
		}
		if e.busy {
			st.Busy++
		}
	}
	return st
}
