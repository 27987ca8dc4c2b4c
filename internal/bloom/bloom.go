// Package bloom implements a space-efficient Bloom filter over uint64 keys.
// It is the probabilistic membership structure behind the WORQ baseline's
// workload-driven join reductions (Madkour et al., ISWC'18): before
// shipping a vertical partition into a join, WORQ probes the other side's
// filter to discard rows that cannot possibly match.
package bloom

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Filter is a classic Bloom filter with k hash functions derived by double
// hashing from two 64-bit mixes of the key. The zero value is not usable;
// construct with New or NewWithEstimates.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint32 // number of hash functions
	n    uint64 // number of inserted keys (approximate under duplicates)
}

// New creates a filter with m bits (rounded up to a multiple of 64) and k
// hash functions. m and k must be positive.
func New(m uint64, k uint32) *Filter {
	if m == 0 {
		m = 64
	}
	if k == 0 {
		k = 1
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// NewWithEstimates sizes a filter for n expected keys at false-positive
// rate fp using the standard formulas m = -n·ln(fp)/ln(2)² and
// k = (m/n)·ln(2).
func NewWithEstimates(n uint64, fp float64) *Filter {
	if n == 0 {
		n = 1
	}
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return New(m, k)
}

// mix64 is a Murmur3-style finalizer giving a well-distributed 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// indexes yields the k bit positions for a key via double hashing.
func (f *Filter) indexes(key uint64, visit func(uint64)) {
	h1 := mix64(key)
	h2 := mix64(key ^ 0x9e3779b97f4a7c15)
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	for i := uint32(0); i < f.k; i++ {
		visit((h1 + uint64(i)*h2) % f.m)
	}
}

// Add inserts a key.
func (f *Filter) Add(key uint64) {
	f.indexes(key, func(bit uint64) {
		f.bits[bit/64] |= 1 << (bit % 64)
	})
	f.n++
}

// Contains reports whether the key may have been inserted. False positives
// are possible; false negatives are not.
func (f *Filter) Contains(key uint64) bool {
	ok := true
	f.indexes(key, func(bit uint64) {
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			ok = false
		}
	})
	return ok
}

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() uint32 { return f.k }

// Count returns the number of Add calls.
func (f *Filter) Count() uint64 { return f.n }

// SizeBytes returns the in-memory/on-disk payload size of the bit array.
func (f *Filter) SizeBytes() int64 { return int64(len(f.bits) * 8) }

// FillRatio returns the fraction of set bits, a load diagnostic.
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(f.m)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// EstimatedFalsePositiveRate returns the expected FP rate for the current
// fill: (1 - e^{-kn/m})^k.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	if f.n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(f.k)*float64(f.n)/float64(f.m)), float64(f.k))
}

const magic = "BLM1"

// WriteTo serializes the filter.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	header := make([]byte, 4+8+4+8)
	copy(header, magic)
	binary.LittleEndian.PutUint64(header[4:], f.m)
	binary.LittleEndian.PutUint32(header[12:], f.k)
	binary.LittleEndian.PutUint64(header[16:], f.n)
	n, err := w.Write(header)
	total := int64(n)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 8)
	for _, word := range f.bits {
		binary.LittleEndian.PutUint64(buf, word)
		n, err = w.Write(buf)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Read deserializes a filter written by WriteTo.
func Read(r io.Reader) (*Filter, error) {
	header := make([]byte, 4+8+4+8)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("bloom: header: %w", err)
	}
	if string(header[:4]) != magic {
		return nil, fmt.Errorf("bloom: bad magic %q", header[:4])
	}
	m := binary.LittleEndian.Uint64(header[4:])
	k := binary.LittleEndian.Uint32(header[12:])
	n := binary.LittleEndian.Uint64(header[16:])
	if m == 0 || m%64 != 0 || k == 0 || m > 1<<36 {
		return nil, fmt.Errorf("bloom: invalid parameters m=%d k=%d", m, k)
	}
	// Read the bits in bounded chunks, growing the filter only as words
	// arrive: a header claiming 2^36 bits over a short file fails at EOF
	// instead of allocating for what it claims.
	f := &Filter{m: m, k: k, n: n}
	buf := make([]byte, 8*min(m/64, 1<<13))
	for left := m / 64; left > 0; {
		chunk := buf[:8*min(left, uint64(len(buf)/8))]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("bloom: bits: %w", err)
		}
		for i := 0; i < len(chunk); i += 8 {
			f.bits = append(f.bits, binary.LittleEndian.Uint64(chunk[i:]))
		}
		left -= uint64(len(chunk) / 8)
	}
	return f, nil
}
