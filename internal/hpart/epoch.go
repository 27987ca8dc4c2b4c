// Epoch-based snapshot isolation between queries and maintenance.
//
// A Store publishes immutable Layout snapshots ("epochs") through an
// atomic pointer. Queries pin the current snapshot for their whole run
// and read exclusively from it — its index maps are never mutated and
// its sub-partition files are never rewritten in place, so a query
// racing an update batch still satisfies the paper's Lemma 4.4: every
// delivered PQA step is a sound subset of the pinned epoch's exact
// answer. The maintainer builds the next epoch copy-on-write (Clone +
// generation-suffixed file writes) off to the side and publishes it with
// a single pointer swap; readers never block on writers and writers
// never block on readers.
//
// Superseded generation files are retired, not deleted: a retired file
// is still readable by every epoch older than the publish that retired
// it. Per-epoch pin refcounts determine when no such epoch survives, at
// which point the garbage collector removes the file (and purges its
// decoded-cache slot).
//
// The store numbers generations: a (sub-partition, generation) path is
// created at most once per store — across deleted and re-created
// sub-partitions, failed batches and rebuilt maintainers — so a path,
// and the decoded-cache slot keyed by it, only ever holds one content.
package hpart

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// retiredFile is a generation file superseded by an epoch transition:
// readable only by snapshots with epoch < asOf.
type retiredFile struct {
	path string
	ck   cacheKey
	// asOf is the epoch whose publish retired the file (filled in by
	// Store.publish).
	asOf uint64
}

// Store mediates concurrent access to a partitioned dataset: queries pin
// immutable snapshots while a single maintainer publishes new epochs.
// All methods are safe for concurrent use; writing is single-writer
// (one Maintainer per Store — see NewStoreMaintainer).
type Store struct {
	cur atomic.Pointer[Layout]

	// mu guards the pin/retire/GC and generation bookkeeping below. It
	// is held only for pointer swaps and counter arithmetic — never
	// across file I/O on the query or maintenance path — so pinning
	// stays O(1) and publish cannot stall readers.
	mu sync.Mutex
	// pins counts in-flight queries per epoch (only epochs with a
	// positive count are present).
	pins map[uint64]int
	// retired holds generation files awaiting GC.
	retired []retiredFile
	// filesRemoved counts generation files deleted by the GC.
	filesRemoved int64
	// gens is the highest generation ever numbered per sub-partition. It
	// never regresses, so no generation path is ever written twice.
	gens map[SubPartKey]uint64

	// leases holds the TTL-bounded pins of hibernated cursors (see
	// lease.go); leaseSeq hands out their ids and leasesExpired counts
	// the ones the TTL reclaimed.
	leases        map[uint64]*leaseEntry
	leaseSeq      uint64
	leasesExpired int64
	// nowFn overrides the time source for lease expiry (tests only).
	nowFn func() time.Time
}

// NewStore wraps a layout as epoch 0 of a snapshot store. The layout
// must not be mutated directly afterwards; route all updates through a
// maintainer created with NewStoreMaintainer on this store — it numbers
// the generations every such maintainer writes.
func NewStore(lay *Layout) *Store {
	s := &Store{pins: make(map[uint64]int), leases: make(map[uint64]*leaseEntry), gens: maps.Clone(lay.gen)}
	if s.gens == nil {
		s.gens = make(map[SubPartKey]uint64)
	}
	s.cur.Store(lay)
	return s
}

// nextGen numbers a fresh generation of a sub-partition's file.
func (s *Store) nextGen(key SubPartKey) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gens[key]++
	return s.gens[key]
}

// Current returns the latest published snapshot without pinning it.
// Suitable for introspection; queries should use Pin so the epoch GC
// keeps their files alive.
func (s *Store) Current() *Layout { return s.cur.Load() }

// Epoch returns the latest published epoch number.
func (s *Store) Epoch() uint64 { return s.cur.Load().epoch }

// Pin returns the current snapshot and a release function. Between Pin
// and release the snapshot's sub-partition files are guaranteed to stay
// on storage even if newer epochs rewrite or delete them. release is
// idempotent.
func (s *Store) Pin() (*Layout, func()) {
	s.mu.Lock()
	lay := s.cur.Load()
	s.pins[lay.epoch]++
	s.mu.Unlock()

	var once sync.Once
	release := func() {
		once.Do(func() {
			s.mu.Lock()
			s.unpinLocked(lay.epoch)
			s.collect()
			s.mu.Unlock()
		})
	}
	return lay, release
}

// publish installs next as the new current epoch. retired lists the
// generation files the transition superseded; they remain readable by
// older epochs until no query pins one.
func (s *Store) publish(next *Layout, retired []retiredFile) {
	s.mu.Lock()
	next.epoch = s.cur.Load().epoch + 1
	for i := range retired {
		retired[i].asOf = next.epoch
	}
	s.retired = append(s.retired, retired...)
	s.cur.Store(next)
	s.collect()
	s.mu.Unlock()
}

// collect deletes every retired file no pinned epoch can still read: a
// file retired as of epoch N is needed only by epochs < N, so it is
// dead once the oldest pinned epoch is >= N (or nothing is pinned at
// all — the current epoch never reads retired files). Expired leases
// are reclaimed first, so a hibernated cursor whose TTL lapsed can
// never hold the GC back. Caller holds mu.
func (s *Store) collect() {
	s.expireLocked(s.now())
	minPinned := uint64(math.MaxUint64)
	for e := range s.pins {
		if e < minPinned {
			minPinned = e
		}
	}
	cur := s.cur.Load()
	kept := s.retired[:0]
	for _, rf := range s.retired {
		if rf.asOf > minPinned {
			kept = append(kept, rf)
			continue
		}
		// Best-effort: a failed remove leaks the file but cannot affect
		// correctness (no snapshot references it anymore).
		_ = cur.removeGeneration(rf.path, rf.ck)
		s.filesRemoved++
	}
	// Zero the tail so dropped entries are not retained by the backing
	// array.
	for i := len(kept); i < len(s.retired); i++ {
		s.retired[i] = retiredFile{}
	}
	s.retired = kept
}

// removeGeneration deletes a generation file and purges its
// decoded-cache slot. Every path that deletes a generation file goes
// through here: the epoch GC, and the maintainer discarding files no
// published epoch ever saw.
func (l *Layout) removeGeneration(path string, ck cacheKey) error {
	if c := l.subPartCache(); c != nil {
		c.purge(ck)
	}
	if !l.fs.Exists(path) {
		return nil
	}
	if err := l.fs.Remove(path); err != nil {
		return fmt.Errorf("hpart: %w", err)
	}
	return nil
}

// StoreStats is a point-in-time view of the store's epoch machinery.
type StoreStats struct {
	// Epoch is the latest published epoch.
	Epoch uint64
	// PinnedQueries is the number of unreleased pins across all epochs.
	PinnedQueries int
	// PinnedEpochs is the number of distinct epochs still pinned.
	PinnedEpochs int
	// RetiredFiles is the number of superseded generation files
	// awaiting GC.
	RetiredFiles int
	// FilesRemoved is the cumulative number of files the GC deleted.
	FilesRemoved int64
	// ActiveLeases is the number of live TTL epoch leases (hibernated
	// cursors); their pins are included in PinnedQueries.
	ActiveLeases int
	// LeasesExpired is the cumulative number of leases the TTL
	// reclaimed.
	LeasesExpired int64
}

// Stats reports the store's current epoch and GC accounting. Expired
// leases are reclaimed before counting, so the report never shows a pin
// a lapsed TTL should have released.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.now())
	s.collect()
	st := StoreStats{
		Epoch:         s.cur.Load().epoch,
		PinnedEpochs:  len(s.pins),
		RetiredFiles:  len(s.retired),
		FilesRemoved:  s.filesRemoved,
		ActiveLeases:  len(s.leases),
		LeasesExpired: s.leasesExpired,
	}
	for _, n := range s.pins {
		st.PinnedQueries += n
	}
	return st
}
