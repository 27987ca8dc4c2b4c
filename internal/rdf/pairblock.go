package rdf

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// SOPairLess orders pairs by (S, O), the canonical sub-partition order.
func SOPairLess(a, b SOPair) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	return a.O < b.O
}

// PairBlock is an immutable container of (subject, object) ID pairs — the
// resident representation of one decoded sub-partition. A block is either
// raw (a plain []SOPair) or packed, and the two are interchangeable
// through ForEach / Materialize. Packed blocks are what the sub-partition
// LRU holds by default: they are where the resident-set reduction comes
// from.
//
// The packed stream starts with a one-byte format tag:
//
//   - tagDelta: a delta-varint stream over (S, O)-sorted pairs — per pair
//     uvarint(ΔS), then the object as uvarint(ΔO) while the subject
//     repeats (objects are non-decreasing within a subject) or as an
//     absolute uvarint when it changes. ~2–3 bytes per pair.
//   - tagEF: Elias-Fano over the monotone keys
//     k = (S-minS)·range(O) + (O-minO). Each key costs l low bits stored
//     verbatim plus ~2 high bits unary, with l = ⌈log₂(u/n)⌉ — about
//     2 + log₂(universe/n) bits per pair, typically 1.5–2.5 bytes.
//
// PackPairs sizes both formats exactly (cheap counting passes) and
// builds only the smaller, so degenerate shapes (tiny blocks, huge
// sparse ID spaces) never regress past the varint stream.
//
// The zero value is an empty block.
type PairBlock struct {
	n      int
	raw    []SOPair
	packed []byte
}

const (
	tagDelta = 1
	tagEF    = 2
)

// RawPairs wraps an existing pair slice as a block without copying or
// compressing. The caller must not mutate pairs afterwards.
func RawPairs(pairs []SOPair) PairBlock {
	return PairBlock{n: len(pairs), raw: pairs}
}

// PackPairs compresses pairs into a packed block. Input is expected in
// (S, O) order — the order ReadSubPartition produces — and is copied and
// sorted first if it is not. The input slice itself is never mutated.
func PackPairs(pairs []SOPair) PairBlock {
	if len(pairs) == 0 {
		return PairBlock{}
	}
	if !sort.SliceIsSorted(pairs, func(i, j int) bool { return SOPairLess(pairs[i], pairs[j]) }) {
		sorted := make([]SOPair, len(pairs))
		copy(sorted, pairs)
		sort.Slice(sorted, func(i, j int) bool { return SOPairLess(sorted[i], sorted[j]) })
		pairs = sorted
	}
	// Size both formats exactly (cheap counting passes), then build only
	// the winner.
	var buf []byte
	if efSize, ok := efSizeOf(pairs); ok && efSize < deltaSizeOf(pairs) {
		buf = packEF(pairs)
	} else {
		buf = packDelta(pairs)
	}
	// Trim excess capacity so Bytes() reflects what the block actually
	// pins.
	if cap(buf)-len(buf) > len(buf)/8 {
		buf = append(make([]byte, 0, len(buf)), buf...)
	}
	return PairBlock{n: len(pairs), packed: buf}
}

// packDelta encodes sorted pairs as the tagged delta-varint stream.
func packDelta(pairs []SOPair) []byte {
	buf := make([]byte, 1, len(pairs)*3)
	buf[0] = tagDelta
	var prevS, prevO ID
	for i, p := range pairs {
		ds := p.S
		if i > 0 {
			ds = p.S - prevS
		}
		buf = binary.AppendUvarint(buf, uint64(ds))
		if i > 0 && ds == 0 {
			buf = binary.AppendUvarint(buf, uint64(p.O-prevO))
		} else {
			buf = binary.AppendUvarint(buf, uint64(p.O))
		}
		prevS, prevO = p.S, p.O
	}
	return buf
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// deltaSizeOf returns the exact byte size packDelta would produce,
// without building the stream.
func deltaSizeOf(pairs []SOPair) int {
	sz := 1
	var prevS, prevO ID
	for i, p := range pairs {
		ds := p.S
		if i > 0 {
			ds = p.S - prevS
		}
		sz += uvarintLen(uint64(ds))
		if i > 0 && ds == 0 {
			sz += uvarintLen(uint64(p.O - prevO))
		} else {
			sz += uvarintLen(uint64(p.O))
		}
		prevS, prevO = p.S, p.O
	}
	return sz
}

// efBounds computes the Elias-Fano parameters for sorted pairs: the key
// is k = (S-minS)·orange + (O-minO), strictly increasing in (S, O)
// order, split into l explicit low bits and a unary-coded high part. ok
// is false when the key universe would overflow uint64 (never for
// realistic ID ranges).
func efBounds(pairs []SOPair) (minS, minO ID, orange, kmax uint64, l int, ok bool) {
	n := len(pairs)
	minS = pairs[0].S
	maxS := pairs[n-1].S
	minO, maxO := pairs[0].O, pairs[0].O
	for _, p := range pairs {
		if p.O < minO {
			minO = p.O
		}
		if p.O > maxO {
			maxO = p.O
		}
	}
	orange = uint64(maxO-minO) + 1
	sspan := uint64(maxS - minS)
	if sspan > 0 && orange > (math.MaxUint64-uint64(maxO-minO))/sspan {
		return 0, 0, 0, 0, 0, false
	}
	kmax = sspan*orange + uint64(maxO-minO)
	if kmax == math.MaxUint64 {
		return 0, 0, 0, 0, 0, false
	}
	u := kmax + 1
	for l < 64 && (u>>uint(l)) > uint64(n) {
		l++
	}
	return minS, minO, orange, kmax, l, true
}

// efSizeOf returns the exact byte size packEF would produce.
func efSizeOf(pairs []SOPair) (int, bool) {
	minS, minO, orange, kmax, l, ok := efBounds(pairs)
	if !ok {
		return 0, false
	}
	n := len(pairs)
	lowBytes := (n*l + 7) / 8
	highBytes := int((kmax>>uint(l))+uint64(n)+7) / 8
	return 1 + uvarintLen(uint64(minS)) + uvarintLen(uint64(minO)) +
		uvarintLen(orange) + 1 + lowBytes + highBytes, true
}

// packEF encodes sorted pairs as the tagged Elias-Fano stream. Returns
// nil when the key universe would overflow uint64.
func packEF(pairs []SOPair) []byte {
	minS, minO, orange, kmax, l, ok := efBounds(pairs)
	if !ok {
		return nil
	}
	n := len(pairs)
	lowBytes := (n*l + 7) / 8
	// The bit position of element i's one in the high array is
	// (k_i >> l) + i, so the array spans (kmax>>l) + n bits.
	highBytes := int((kmax>>uint(l))+uint64(n)+7) / 8

	buf := make([]byte, 0, 1+4*binary.MaxVarintLen64+1+lowBytes+highBytes)
	buf = append(buf, tagEF)
	buf = binary.AppendUvarint(buf, uint64(minS))
	buf = binary.AppendUvarint(buf, uint64(minO))
	buf = binary.AppendUvarint(buf, orange)
	buf = append(buf, byte(l))
	head := len(buf)
	buf = append(buf, make([]byte, lowBytes+highBytes)...)
	low := buf[head : head+lowBytes]
	high := buf[head+lowBytes:]
	mask := uint64(1)<<uint(l) - 1
	if l == 64 {
		mask = math.MaxUint64
	}
	for i, p := range pairs {
		k := uint64(p.S-minS)*orange + uint64(p.O-minO)
		if l > 0 {
			setBits(low, i*l, k&mask, l)
		}
		pos := (k >> uint(l)) + uint64(i)
		high[pos>>3] |= 1 << (pos & 7)
	}
	return buf
}

// setBits writes the low `width` bits of v into dst at bit offset bitPos,
// LSB first. dst must be zeroed at the target positions.
func setBits(dst []byte, bitPos int, v uint64, width int) {
	for width > 0 {
		idx, off := bitPos>>3, bitPos&7
		take := 8 - off
		if take > width {
			take = width
		}
		dst[idx] |= byte(v) << uint(off)
		v >>= uint(take)
		bitPos += take
		width -= take
	}
}

// getBits reads `width` bits from src at bit offset bitPos, LSB first.
func getBits(src []byte, bitPos, width int) uint64 {
	var v uint64
	sh := 0
	for width > 0 {
		idx, off := bitPos>>3, bitPos&7
		take := 8 - off
		if take > width {
			take = width
		}
		v |= uint64(src[idx]>>uint(off)&byte(1<<uint(take)-1)) << uint(sh)
		sh += take
		bitPos += take
		width -= take
	}
	return v
}

// Len returns the number of pairs in the block.
func (b PairBlock) Len() int { return b.n }

// Packed reports whether the block holds the compressed representation.
func (b PairBlock) Packed() bool { return b.packed != nil }

// Bytes returns the resident payload size of the block: the packed
// stream for packed blocks, 8 bytes per pair for raw ones.
func (b PairBlock) Bytes() int {
	if b.packed != nil {
		return len(b.packed)
	}
	return b.n * 8
}

// RawBytes returns what the block would occupy uncompressed (8 bytes per
// pair), regardless of representation.
func (b PairBlock) RawBytes() int { return b.n * 8 }

// ForEach calls fn for every pair in order without materializing a slice.
func (b PairBlock) ForEach(fn func(SOPair)) {
	if b.raw != nil {
		for _, p := range b.raw {
			fn(p)
		}
		return
	}
	var buf [64]SOPair
	d := newPairDecoder(b)
	for n := d.fill(buf[:]); n > 0; n = d.fill(buf[:]) {
		for _, p := range buf[:n] {
			fn(p)
		}
	}
}

// ForEachBatch calls fn with the block's pairs in order, in consecutive
// batches: a packed block decodes into buf, len(buf) pairs at a time,
// and a raw block hands over its own slice in one batch. fn must treat
// the batch as read-only and must not retain it past the call. A
// caller that reuses one buf across blocks decodes without allocating.
func (b PairBlock) ForEachBatch(buf []SOPair, fn func([]SOPair)) {
	if b.raw != nil {
		if len(b.raw) > 0 {
			fn(b.raw)
		}
		return
	}
	if len(buf) == 0 {
		buf = make([]SOPair, 256)
	}
	d := newPairDecoder(b)
	for n := d.fill(buf); n > 0; n = d.fill(buf) {
		fn(buf[:n])
	}
}

// pairDecoder decodes a packed block incrementally: each fill resumes
// where the previous one stopped, so the stream can be drained into a
// fixed buffer.
type pairDecoder struct {
	n, done int
	ef      bool
	// Delta-varint state: the unread stream and the last pair.
	stream       []byte
	prevS, prevO ID
	// Elias-Fano state: the low-bit and high-bit arrays, the key
	// parameters, the read positions and the subject offset tracked
	// incrementally from the non-decreasing keys.
	low, high    []byte
	l            int
	lmask        uint64
	minS, minO   ID
	orange       uint64
	sRel, sBase  uint64
	bitPos, hpos int
	hbits        byte
}

func newPairDecoder(b PairBlock) pairDecoder {
	d := pairDecoder{n: b.n}
	if b.n == 0 {
		return d
	}
	buf := b.packed[1:]
	if b.packed[0] != tagEF {
		d.stream = buf
		return d
	}
	d.ef = true
	mins, k := binary.Uvarint(buf)
	buf = buf[k:]
	mino, k := binary.Uvarint(buf)
	buf = buf[k:]
	d.orange, k = binary.Uvarint(buf)
	buf = buf[k:]
	d.l = int(buf[0])
	buf = buf[1:]
	lowBytes := (b.n*d.l + 7) / 8
	d.low, d.high = buf[:lowBytes], buf[lowBytes:]
	d.minS, d.minO = ID(mins), ID(mino)
	d.lmask = uint64(1)<<uint(d.l) - 1
	d.hbits = d.high[0]
	return d
}

// fill decodes the next pairs into out and returns how many it wrote;
// 0 means the block is exhausted.
func (d *pairDecoder) fill(out []SOPair) int {
	if len(out) > d.n-d.done {
		out = out[:d.n-d.done]
	}
	if d.ef {
		d.fillEF(out)
	} else {
		d.fillDelta(out)
	}
	d.done += len(out)
	return len(out)
}

func (d *pairDecoder) fillDelta(out []SOPair) {
	buf, prevS, prevO := d.stream, d.prevS, d.prevO
	first := d.done == 0
	for j := range out {
		ds, k := binary.Uvarint(buf)
		buf = buf[k:]
		dv, k := binary.Uvarint(buf)
		buf = buf[k:]
		s := prevS + ID(ds)
		o := ID(dv)
		if ds == 0 && !first {
			o = prevO + ID(dv)
		}
		first = false
		out[j] = SOPair{S: s, O: o}
		prevS, prevO = s, o
	}
	d.stream, d.prevS, d.prevO = buf, prevS, prevO
}

func (d *pairDecoder) fillEF(out []SOPair) {
	low, high, l, lmask, orange := d.low, d.high, d.l, d.lmask, d.orange
	sRel, sBase, bitPos, hpos, hbits := d.sRel, d.sBase, d.bitPos, d.hpos, d.hbits
	i := d.done
	for j := range out {
		for hbits == 0 {
			hpos++
			hbits = high[hpos]
		}
		pos := hpos*8 + bits.TrailingZeros8(hbits)
		hbits &= hbits - 1
		key := uint64(pos-i) << uint(l)
		if l > 0 {
			// A 64-bit window at the byte holding bitPos covers all
			// l ≤ 57 low bits in one unaligned load; the generic
			// bit-loop handles the buffer tail and oversized l.
			if idx := bitPos >> 3; idx+8 <= len(low) && l <= 57 {
				w := binary.LittleEndian.Uint64(low[idx:])
				key |= w >> uint(bitPos&7) & lmask
			} else {
				key |= getBits(low, bitPos, l)
			}
			bitPos += l
		}
		// Keys are non-decreasing, so k/orange (the subject offset) can
		// be tracked incrementally: most hops fit a few subtractions,
		// and only large jumps pay a hardware division to resync.
		delta := key - sBase
		if delta >= orange {
			if delta < orange*8 {
				for delta >= orange {
					sRel++
					sBase += orange
					delta -= orange
				}
			} else {
				sRel = key / orange
				sBase = sRel * orange
				delta = key - sBase
			}
		}
		out[j] = SOPair{S: d.minS + ID(sRel), O: d.minO + ID(delta)}
		i++
	}
	d.sRel, d.sBase, d.bitPos, d.hpos, d.hbits = sRel, sBase, bitPos, hpos, hbits
}

// AppendTo decodes the block onto dst and returns the extended slice.
func (b PairBlock) AppendTo(dst []SOPair) []SOPair {
	if b.raw != nil {
		return append(dst, b.raw...)
	}
	n := len(dst)
	dst = slices.Grow(dst, b.n)[:n+b.n]
	d := newPairDecoder(b)
	d.fill(dst[n:])
	return dst
}

// Materialize returns the pairs as a fresh slice (or the shared raw slice
// for raw blocks; callers must treat the result as read-only).
func (b PairBlock) Materialize() []SOPair {
	if b.raw != nil {
		return b.raw
	}
	return b.AppendTo(make([]SOPair, 0, b.n))
}
