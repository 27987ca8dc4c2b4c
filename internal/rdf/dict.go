package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
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
type Dict struct {
	mu        sync.RWMutex
	byKey     map[string]ID
	terms     []Term
	sig       uint64 // rolling FNV-64a over surface forms, in ID order
	termBytes int64  // total surface-form bytes interned
}

const (
	dictFNVOffset = 14695981039346656037
	dictFNVPrime  = 1099511628211
)

func foldSig(h uint64, key string) uint64 {
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= dictFNVPrime
	}
	h ^= '\n'
	h *= dictFNVPrime
	return h
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byKey: make(map[string]ID), sig: dictFNVOffset}
}

// Len returns the number of distinct terms interned.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Encode interns the term and returns its ID, allocating a new ID on first
// sight.
func (d *Dict) Encode(t Term) ID {
	key := t.String()
	d.mu.RLock()
	id, ok := d.byKey[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.byKey[key]; ok {
		return id
	}
	id = ID(len(d.terms))
	d.terms = append(d.terms, t)
	d.byKey[key] = id
	d.sig = foldSig(d.sig, key)
	d.termBytes += int64(len(key))
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
	if n < 0 || n > len(d.terms) {
		return 0
	}
	if n == len(d.terms) {
		return d.sig
	}
	h := uint64(dictFNVOffset)
	for _, t := range d.terms[:n] {
		h = foldSig(h, t.String())
	}
	return h
}

// ResidentBytes estimates the in-memory footprint of the dictionary:
// surface forms are held twice (map key and term), plus fixed per-entry
// overhead for the map bucket, term struct, and slice slot.
func (d *Dict) ResidentBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return 2*d.termBytes + int64(len(d.terms))*48
}

// Snapshot captures the current (length, signature) prefix as an immutable
// DictView. The view keeps serving lookups from the live dictionary but
// caps visible IDs at the snapshot length, so later appends by a maintainer
// never leak into an older epoch.
func (d *Dict) Snapshot() *DictView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return &DictView{d: d, n: len(d.terms), sig: d.sig}
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
	if int(id) >= v.n {
		panic(fmt.Sprintf("rdf: id %d beyond dict snapshot of %d terms", id, v.n))
	}
	return v.d.Term(id)
}

// TermString returns the N-Triples surface form for an ID within the
// snapshot.
func (v *DictView) TermString(id ID) string { return v.Term(id).String() }

// Lookup returns the ID of a term, or NoID if it has never been interned.
func (d *Dict) Lookup(t Term) ID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.byKey[t.String()]; ok {
		return id
	}
	return NoID
}

// LookupIRI is shorthand for Lookup(NewIRI(iri)).
func (d *Dict) LookupIRI(iri string) ID { return d.Lookup(NewIRI(iri)) }

// EncodeIRI is shorthand for Encode(NewIRI(iri)).
func (d *Dict) EncodeIRI(iri string) ID { return d.Encode(NewIRI(iri)) }

// Term returns the term for an ID. It panics on out-of-range IDs, which
// always indicate a programming error (IDs only come from this dictionary).
func (d *Dict) Term(id ID) Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[id]
}

// TermString returns the N-Triples surface form for an ID.
func (d *Dict) TermString(id ID) string { return d.Term(id).String() }

// WriteTo serializes the dictionary as one surface-form per line, preceded
// by a count header. IDs are implicit in line order.
func (d *Dict) WriteTo(w io.Writer) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.writeRange(w, 0, len(d.terms))
}

// WriteSegment serializes the terms with IDs in [from, to) in the WriteTo
// format. Appending it to a dictionary of exactly from terms with
// ReadSegment restores IDs from..to-1.
func (d *Dict) WriteSegment(w io.Writer, from, to int) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if from < 0 || from > to || to > len(d.terms) {
		return 0, fmt.Errorf("rdf: dict segment [%d, %d) outside %d terms", from, to, len(d.terms))
	}
	return d.writeRange(w, from, to)
}

// writeRange writes terms [from, to) through one reused line buffer.
// Caller holds mu.
func (d *Dict) writeRange(w io.Writer, from, to int) (int64, error) {
	// A bufio.Writer keeps its first error and returns it from Flush.
	bw := bufio.NewWriterSize(w, 1<<16)
	line := strconv.AppendInt(make([]byte, 0, 256), int64(to-from), 10)
	n, _ := bw.Write(append(line, '\n'))
	total := int64(n)
	for _, t := range d.terms[from:to] {
		line = append(t.appendTo(line[:0]), '\n')
		n, _ = bw.Write(line)
		total += int64(n)
	}
	return total, bw.Flush()
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
// IDs in line order. A term d already holds is rejected: IDs are dense
// and unique. On error d is left inconsistent and must be discarded.
func (d *Dict) ReadSegment(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<16)
	header, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("rdf: dict header: %w", err)
	}
	count, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || count < 0 {
		return fmt.Errorf("rdf: bad dict count %q", strings.TrimSpace(header))
	}
	room := maxDictPrealloc
	if lr, ok := r.(interface{ Len() int }); ok {
		room = (lr.Len() + br.Buffered()) / minDictLine
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.terms) == 0 {
		d.byKey = make(map[string]ID, min(count, room))
		d.terms = make([]Term, 0, min(count, room))
	}
	for i := 0; i < count; i++ {
		line, err := br.ReadString('\n')
		if err != nil && !(err == io.EOF && line != "") {
			return fmt.Errorf("rdf: dict line %d: %w", i, err)
		}
		line = strings.TrimRight(line, "\n")
		t, rest, err := parseTerm(line)
		if err != nil {
			return fmt.Errorf("rdf: dict line %d: %w", i, err)
		}
		if strings.TrimSpace(rest) != "" {
			return fmt.Errorf("rdf: dict line %d: trailing data %q", i, rest)
		}
		key := t.String()
		d.byKey[key] = ID(len(d.terms))
		if len(d.byKey) == len(d.terms) {
			return fmt.Errorf("rdf: dict line %d: duplicate term %s", i, key)
		}
		d.terms = append(d.terms, t)
		d.sig = foldSig(d.sig, key)
		d.termBytes += int64(len(key))
	}
	return nil
}
