package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// ID is a dense dictionary identifier for a term. IDs start at 0 and grow
// contiguously in insertion order, so they can index slices directly.
type ID = uint32

// NoID is returned by lookups for terms absent from the dictionary.
const NoID ID = ^ID(0)

// Dict is a bidirectional mapping between terms (keyed by their N-Triples
// surface form) and dense uint32 IDs. It is safe for concurrent readers
// interleaved with a single writer when guarded by the embedded mutex via
// Encode; Lookup and Term take read locks only.
//
// The dictionary is append-only: IDs are never reassigned or removed, so a
// (length, signature) pair taken at any point identifies an immutable prefix
// that later growth only extends. Snapshot captures such a prefix as a
// DictView.
//
// It holds no pointer per term. Surface forms sit in one byte arena, each
// followed by a newline, in ID order: the arena is the body of the file
// WriteTo writes. offs[id] is where term id starts, and offs[Len()] is the
// arena's length. table is an open-addressing hash set of id+1 (0 marks a
// free slot), keyed by the hash of the surface form and probed linearly
// against the arena. Bytes once in the arena never change, so TermString
// hands out views of them that stay valid as the arena grows.
type Dict struct {
	mu    sync.RWMutex
	arena []byte
	offs  []uint32
	table []uint32
	seed  maphash.Seed
	sig   uint64 // rolling FNV-64a over the arena
}

const (
	dictFNVOffset = 14695981039346656037
	dictFNVPrime  = 1099511628211
)

// foldSig folds b into the rolling signature. Folding a term's arena
// bytes (its surface form and newline) one term at a time gives the same
// signature as folding the arena at once.
func foldSig(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= dictFNVPrime
	}
	return h
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{offs: []uint32{0}, seed: maphash.MakeSeed(), sig: dictFNVOffset}
}

// Len returns the number of distinct terms interned.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.offs) - 1
}

// form returns the surface form of id, without its newline. Caller holds
// mu.
func (d *Dict) form(id ID) []byte {
	return d.arena[d.offs[id] : d.offs[id+1]-1]
}

// slot returns the table slot of key: the one holding its ID, or the
// free slot where it would go. Caller holds mu, and the table has a free
// slot.
func (d *Dict) slot(key []byte) int {
	n := uint64(len(d.table))
	i := int((maphash.Bytes(d.seed, key) >> 32) * n >> 32)
	for {
		e := d.table[i]
		if e == 0 || bytes.Equal(d.form(e-1), key) {
			return i
		}
		if i++; i == len(d.table) {
			i = 0
		}
	}
}

// lookup returns the ID of a surface form, or NoID. Caller holds mu.
func (d *Dict) lookup(key []byte) ID {
	if len(d.table) == 0 {
		return NoID
	}
	return d.table[d.slot(key)] - 1
}

// reserve sizes the table for n terms at a load of at most 3/4,
// rehashing every term when it has to grow. Caller holds mu for writing.
func (d *Dict) reserve(n int) {
	if n*4 <= len(d.table)*3 {
		return
	}
	d.table = make([]uint32, max(n*4/3+1, 2*len(d.table)))
	for id := range len(d.offs) - 1 {
		d.table[d.slot(d.form(ID(id)))] = uint32(id) + 1
	}
}

// commit makes the surface form at arena[start:], already followed by
// its newline, the next ID, unless the dictionary holds it already. It
// reports the term's ID and whether it is new. Caller holds mu for
// writing.
func (d *Dict) commit(start int) (ID, bool, error) {
	if len(d.arena) > math.MaxUint32 {
		return NoID, false, fmt.Errorf("rdf: dictionary arena over %d bytes", uint32(math.MaxUint32))
	}
	n := len(d.offs) - 1
	d.reserve(n + 1)
	i := d.slot(d.arena[start : len(d.arena)-1])
	if e := d.table[i]; e != 0 {
		return e - 1, false, nil
	}
	d.table[i] = uint32(n) + 1
	d.offs = append(d.offs, uint32(len(d.arena)))
	d.sig = foldSig(d.sig, d.arena[start:])
	return ID(n), true, nil
}

// grow returns s with room for n more elements. A reallocation adds at
// least a quarter, so reading segments one after another stays
// amortized, and otherwise exactly n: reading a whole dictionary
// reserves no slack.
func grow[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	g := make([]E, len(s), max(len(s)+n, cap(s)+cap(s)/4))
	copy(g, s)
	return g
}

// Encode interns the term and returns its ID, allocating a new ID on first
// sight. It panics when the arena would pass 4 GiB, the reach of its
// uint32 offsets.
func (d *Dict) Encode(t Term) ID {
	var buf [256]byte
	key := t.appendTo(buf[:0])
	d.mu.RLock()
	id := d.lookup(key)
	d.mu.RUnlock()
	if id != NoID {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	start := len(d.arena)
	d.arena = append(append(d.arena, key...), '\n')
	id, added, err := d.commit(start)
	if err != nil {
		panic(err)
	}
	if !added {
		// Another writer interned it between the two locks.
		d.arena = d.arena[:start]
	}
	return id
}

// Sig returns the rolling content signature over all interned surface
// forms in ID order. Equal signatures at equal lengths mean the two
// dictionaries assign identical IDs to identical terms.
func (d *Dict) Sig() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.sig
}

// PrefixSig recomputes the content signature of the first n terms. It is
// O(total surface bytes) and intended for resume-time validation, where a
// checkpoint taken at length n must match the prefix of a possibly larger
// current dictionary.
func (d *Dict) PrefixSig(n int) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if n < 0 || n >= len(d.offs) {
		return 0
	}
	if n == len(d.offs)-1 {
		return d.sig
	}
	return foldSig(dictFNVOffset, d.arena[:d.offs[n]])
}

// ResidentBytes returns the bytes the dictionary holds: the capacities
// of its arena, offsets and table.
func (d *Dict) ResidentBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(cap(d.arena) + 4*cap(d.offs) + 4*cap(d.table))
}

// Snapshot captures the current (length, signature) prefix as an immutable
// DictView. The view keeps serving lookups from the live dictionary but
// caps visible IDs at the snapshot length, so later appends by a maintainer
// never leak into an older epoch.
func (d *Dict) Snapshot() *DictView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return &DictView{d: d, n: len(d.offs) - 1, sig: d.sig}
}

// DictView is an immutable prefix of a Dict, pinned to the (length,
// signature) observed at Snapshot time. Layout epochs hold a DictView so
// that ID→term decoding and term→ID lookups are stable for the lifetime of
// the epoch even while the shared dictionary keeps growing.
type DictView struct {
	d   *Dict
	n   int
	sig uint64
}

// Len returns the number of terms visible through the view.
func (v *DictView) Len() int { return v.n }

// Sig returns the content signature of the snapshotted prefix.
func (v *DictView) Sig() uint64 { return v.sig }

// Lookup returns the ID of a term, or NoID if the term is absent or was
// interned after the snapshot.
func (v *DictView) Lookup(t Term) ID {
	id := v.d.Lookup(t)
	if id == NoID || int(id) >= v.n {
		return NoID
	}
	return id
}

// LookupIRI is shorthand for Lookup(NewIRI(iri)).
func (v *DictView) LookupIRI(iri string) ID { return v.Lookup(NewIRI(iri)) }

// Term returns the term for an ID within the snapshot. It panics on IDs at
// or beyond the snapshot length: an epoch can only see IDs it produced.
func (v *DictView) Term(id ID) Term {
	v.check(id)
	return v.d.Term(id)
}

// TermString returns the N-Triples surface form for an ID within the
// snapshot.
func (v *DictView) TermString(id ID) string {
	v.check(id)
	return v.d.TermString(id)
}

func (v *DictView) check(id ID) {
	if int(id) >= v.n {
		panic(fmt.Sprintf("rdf: id %d beyond dict snapshot of %d terms", id, v.n))
	}
}

// Lookup returns the ID of a term, or NoID if it has never been interned.
func (d *Dict) Lookup(t Term) ID {
	var buf [256]byte
	key := t.appendTo(buf[:0])
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lookup(key)
}

// LookupIRI is shorthand for Lookup(NewIRI(iri)).
func (d *Dict) LookupIRI(iri string) ID { return d.Lookup(NewIRI(iri)) }

// EncodeIRI is shorthand for Encode(NewIRI(iri)).
func (d *Dict) EncodeIRI(iri string) ID { return d.Encode(NewIRI(iri)) }

// Term returns the term for an ID, parsed from its surface form; an IRI
// or blank node shares the arena's bytes. It panics on out-of-range IDs,
// which always indicate a programming error (IDs only come from this
// dictionary).
func (d *Dict) Term(id ID) Term {
	s := d.TermString(id)
	switch s[0] {
	case '<':
		return NewIRI(s[1 : len(s)-1])
	case '_':
		return NewBlank(s[2:])
	}
	t, _, _ := parseTerm(s)
	return t
}

// TermString returns the N-Triples surface form for an ID, a view of the
// arena that allocates nothing. Like Term's IRIs and blank nodes, it
// shares the arena's memory: a caller that keeps it for long should copy
// it (strings.Clone), so it does not pin an arena the dictionary has
// outgrown.
func (d *Dict) TermString(id ID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	b := d.form(id)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// WriteTo serializes the dictionary as one surface-form per line, preceded
// by a count header. IDs are implicit in line order.
func (d *Dict) WriteTo(w io.Writer) (int64, error) {
	return d.WriteSegment(w, 0, d.Len())
}

// WriteSegment serializes the terms with IDs in [from, to) in the WriteTo
// format. Appending it to a dictionary of exactly from terms with
// ReadSegment restores IDs from..to-1. It copies the arena's bytes, which
// are already the lines.
func (d *Dict) WriteSegment(w io.Writer, from, to int) (int64, error) {
	d.mu.RLock()
	n := len(d.offs) - 1
	if from < 0 || from > to || to > n {
		d.mu.RUnlock()
		return 0, fmt.Errorf("rdf: dict segment [%d, %d) outside %d terms", from, to, n)
	}
	body := d.arena[d.offs[from]:d.offs[to]]
	d.mu.RUnlock()
	// The body is immutable, so it is written outside the lock.
	k, err := w.Write(append(strconv.AppendInt(nil, int64(to-from), 10), '\n'))
	total := int64(k)
	if err == nil {
		k, err = w.Write(body)
		total += int64(k)
	}
	return total, err
}

// The count header is input, and a few bytes must not reserve room for
// billions of terms. ReadSegment reserves room for no more terms than
// the rest of the input can hold, each line taking at least
// minDictLine bytes, or for maxDictPrealloc terms when the reader does
// not tell how much is left.
const (
	minDictLine     = 3 // <>, "" or _:x, and the newline
	maxDictPrealloc = 1 << 12
)

// ReadDict parses a dictionary previously written by WriteTo.
func ReadDict(r io.Reader) (*Dict, error) {
	d := NewDict()
	if err := d.ReadSegment(r); err != nil {
		return nil, err
	}
	return d, nil
}

// ReadSegment appends the terms of a segment written by WriteSegment (or
// of a whole dictionary written by WriteTo) to d, giving them the next
// IDs in line order. Every line must parse as one term; a term d already
// holds is rejected: IDs are dense and unique. Each line is read straight
// into the arena and kept as it is when it is the term's canonical form,
// as every line WriteSegment writes is, so reading allocates nothing per
// term. On error d is left inconsistent and must be discarded.
func (d *Dict) ReadSegment(r io.Reader) error {
	size, room := 1<<16, maxDictPrealloc
	left := -1
	if lr, ok := r.(interface{ Len() int }); ok {
		left = lr.Len()
		size = min(size, max(left, 16))
	}
	br := bufio.NewReaderSize(r, size)
	header, err := br.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("rdf: dict header: %w", err)
	}
	count, err := strconv.Atoi(string(bytes.TrimSpace(header)))
	if err != nil || count < 0 {
		return fmt.Errorf("rdf: bad dict count %q", bytes.TrimSpace(header))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if left >= 0 {
		left -= len(header)
		room = left / minDictLine
		// Canonical lines fill the arena with exactly the input's bytes.
		d.arena = grow(d.arena, left+1)
	}
	d.offs = grow(d.offs, min(count, room))
	d.reserve(len(d.offs) - 1 + min(count, room))
	var canon []byte
	for i := 0; i < count; i++ {
		start := len(d.arena)
		line, err := br.ReadSlice('\n')
		d.arena = append(d.arena, line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			d.arena = append(d.arena, line...)
		}
		if err == io.EOF && len(d.arena) > start {
			d.arena = append(d.arena, '\n')
		} else if err != nil {
			return fmt.Errorf("rdf: dict line %d: %w", i, err)
		}
		raw := d.arena[start : len(d.arena)-1]
		s := unsafe.String(unsafe.SliceData(raw), len(raw))
		t, rest, err := parseTerm(s)
		if err != nil {
			return fmt.Errorf("rdf: dict line %d: %w", i, err)
		}
		if !isCanonical(s, t, rest) {
			if strings.TrimSpace(rest) != "" {
				return fmt.Errorf("rdf: dict line %d: trailing data %q", i, rest)
			}
			// t may share the line's bytes, so build its form apart first.
			canon = t.appendTo(canon[:0])
			d.arena = append(append(d.arena[:start], canon...), '\n')
		}
		_, added, err := d.commit(start)
		if err != nil {
			return err
		}
		if !added {
			return fmt.Errorf("rdf: dict line %d: duplicate term %s", i, d.arena[start:len(d.arena)-1])
		}
	}
	return nil
}
