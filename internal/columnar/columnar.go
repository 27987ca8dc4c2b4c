// Package columnar implements PCOL, a small columnar binary file format
// playing the role Parquet plays in the paper's stack: partitions and
// indexes are stored as compressed integer columns whose on-disk size can
// be measured and compared across storage layouts (the Fig. 7 reduction-
// factor experiment).
//
// A PCOL file holds N columns of uint32 values. Each column is written
// with one of three encodings — plain varint, zig-zag delta varint, or
// dictionary+run-length — selected explicitly or automatically (smallest
// wins). Every column payload carries a CRC32 checksum verified on read.
package columnar

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Encoding identifies how a column's values are compressed.
type Encoding uint8

const (
	// Plain stores each value as an unsigned varint.
	Plain Encoding = iota
	// Delta sorts nothing but stores consecutive differences zig-zag
	// varint encoded; effective on nearly-sorted ID columns.
	Delta
	// DictRLE stores a dictionary of distinct values plus run-length
	// encoded dictionary indexes; effective on low-cardinality columns.
	DictRLE
	// Auto is a write-time pseudo-encoding: pick whichever of the three
	// concrete encodings yields the smallest payload.
	Auto Encoding = 255
)

func (e Encoding) String() string {
	switch e {
	case Plain:
		return "plain"
	case Delta:
		return "delta"
	case DictRLE:
		return "dict-rle"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

const (
	magic   = "PCOL"
	version = 1
	// MaxColumnLen bounds the values of one column. A decoder must not
	// let a few hostile bytes claim gigabytes, and DictRLE runs can
	// legitimately expand a tiny payload without limit.
	MaxColumnLen = 1 << 26
)

// putUvarint appends x to buf as an unsigned varint.
func putUvarint(buf []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	return append(buf, tmp[:n]...)
}

func zigzag(x int64) uint64   { return uint64((x << 1) ^ (x >> 63)) }
func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

// encodePlain varint-encodes every value.
func encodePlain(vals []uint32) []byte {
	buf := make([]byte, 0, len(vals)*2)
	for _, v := range vals {
		buf = putUvarint(buf, uint64(v))
	}
	return buf
}

// encodeDelta zig-zag varint-encodes consecutive differences.
func encodeDelta(vals []uint32) []byte {
	buf := make([]byte, 0, len(vals)*2)
	prev := int64(0)
	for _, v := range vals {
		buf = putUvarint(buf, zigzag(int64(v)-prev))
		prev = int64(v)
	}
	return buf
}

// encodeDictRLE stores |dict|, the sorted dictionary (delta varint), then
// (index, runLength) pairs.
func encodeDictRLE(vals []uint32) []byte {
	distinct := make(map[uint32]struct{}, 64)
	for _, v := range vals {
		distinct[v] = struct{}{}
	}
	dict := make([]uint32, 0, len(distinct))
	for v := range distinct {
		dict = append(dict, v)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	index := make(map[uint32]uint32, len(dict))
	for i, v := range dict {
		index[v] = uint32(i)
	}
	buf := make([]byte, 0, len(dict)*2+len(vals)/2)
	buf = putUvarint(buf, uint64(len(dict)))
	prev := uint32(0)
	for _, v := range dict {
		buf = putUvarint(buf, uint64(v-prev))
		prev = v
	}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		buf = putUvarint(buf, uint64(index[vals[i]]))
		buf = putUvarint(buf, uint64(j-i))
		i = j
	}
	return buf
}

type byteReader struct {
	data []byte
	pos  int
}

func (b *byteReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(b.data[b.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("columnar: truncated varint at offset %d", b.pos)
	}
	b.pos += n
	return x, nil
}

func decodePlain(data []byte, count uint64) ([]uint32, error) {
	br := &byteReader{data: data}
	out := make([]uint32, count)
	for i := range out {
		v, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<32-1 {
			return nil, fmt.Errorf("columnar: value %d overflows uint32", v)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

func decodeDelta(data []byte, count uint64) ([]uint32, error) {
	br := &byteReader{data: data}
	out := make([]uint32, count)
	prev := int64(0)
	for i := range out {
		d, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		prev += unzigzag(d)
		if prev < 0 || prev > 1<<32-1 {
			return nil, fmt.Errorf("columnar: delta value %d out of uint32 range", prev)
		}
		out[i] = uint32(prev)
	}
	return out, nil
}

func decodeDictRLE(data []byte, count uint64) ([]uint32, error) {
	br := &byteReader{data: data}
	dlen, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	// Every dictionary entry takes at least one payload byte.
	if dlen > count || dlen > uint64(len(data)) {
		return nil, fmt.Errorf("columnar: dictionary size %d exceeds column size %d", dlen, count)
	}
	dict := make([]uint32, dlen)
	prev := uint64(0)
	for i := range dict {
		d, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		prev += d
		if prev > 1<<32-1 {
			return nil, fmt.Errorf("columnar: dictionary value overflow")
		}
		dict[i] = uint32(prev)
	}
	// Runs, not the declared count, grow the output: a count the payload
	// cannot back fails on the truncated run stream, not in allocation.
	out := make([]uint32, 0, min(count, uint64(len(data))))
	for uint64(len(out)) < count {
		idx, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		run, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		if idx >= dlen || run == 0 || uint64(len(out))+run > count {
			return nil, fmt.Errorf("columnar: corrupt RLE run (idx=%d run=%d)", idx, run)
		}
		v := dict[idx]
		for j := uint64(0); j < run; j++ {
			out = append(out, v)
		}
	}
	return out, nil
}

// uvarintLen returns the number of bytes binary.PutUvarint uses for x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// sizePlain, sizeDelta and sizeDictRLE return the exact payload length
// the corresponding encoder would produce, without materializing it.
// They let Auto pick a winner with three cheap counting passes and run
// only the winning encoder, instead of building all three buffers.
func sizePlain(vals []uint32) int {
	n := 0
	for _, v := range vals {
		n += uvarintLen(uint64(v))
	}
	return n
}

func sizeDelta(vals []uint32) int {
	n, prev := 0, int64(0)
	for _, v := range vals {
		n += uvarintLen(zigzag(int64(v) - prev))
		prev = int64(v)
	}
	return n
}

func sizeDictRLE(vals []uint32) int {
	distinct := make(map[uint32]struct{}, 64)
	for _, v := range vals {
		distinct[v] = struct{}{}
	}
	dict := make([]uint32, 0, len(distinct))
	for v := range distinct {
		dict = append(dict, v)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	index := make(map[uint32]uint32, len(dict))
	for i, v := range dict {
		index[v] = uint32(i)
	}
	n := uvarintLen(uint64(len(dict)))
	prev := uint32(0)
	for _, v := range dict {
		n += uvarintLen(uint64(v - prev))
		prev = v
	}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		n += uvarintLen(uint64(index[vals[i]]))
		n += uvarintLen(uint64(j - i))
		i = j
	}
	return n
}

// payloadSize returns the exact payload length for a column under enc;
// for Auto, the minimum across the three concrete encodings with the
// same tie-break as chooseAuto.
func payloadSize(vals []uint32, enc Encoding) int {
	switch enc {
	case Plain:
		return sizePlain(vals)
	case Delta:
		return sizeDelta(vals)
	case DictRLE:
		return sizeDictRLE(vals)
	default:
		_, n := chooseAuto(vals)
		return n
	}
}

// chooseAuto picks the smallest of the three encodings by exact size
// estimation. Ties break toward the earlier encoding in Plain, Delta,
// DictRLE order (a later candidate must be strictly smaller to win),
// matching the historical encode-everything behaviour.
//
// DictRLE spends at least two bytes per run (dictionary index and run
// length) and at least two on its dictionary (the count and one value),
// so when 2·runs + 2 cannot beat the best so far its exact sizing — two
// maps and a sort — is skipped. That is the common case for sorted
// distinct key columns, and the choice and the size are unchanged.
func chooseAuto(vals []uint32) (Encoding, int) {
	best, bestEnc := sizePlain(vals), Plain
	if d := sizeDelta(vals); d < best {
		best, bestEnc = d, Delta
	}
	if 2*countRuns(vals)+2 < best {
		if d := sizeDictRLE(vals); d < best {
			best, bestEnc = d, DictRLE
		}
	}
	return bestEnc, best
}

// countRuns returns the number of maximal runs of equal values.
func countRuns(vals []uint32) int {
	if len(vals) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	return runs
}

// encode returns the payload for a column under enc; for Auto it sizes all
// three and encodes only the smallest, returning the winning encoding.
func encode(vals []uint32, enc Encoding) ([]byte, Encoding) {
	switch enc {
	case Plain:
		return encodePlain(vals), Plain
	case Delta:
		return encodeDelta(vals), Delta
	case DictRLE:
		return encodeDictRLE(vals), DictRLE
	default:
		winner, _ := chooseAuto(vals)
		payload, _ := encode(vals, winner)
		return payload, winner
	}
}

// WriteColumns writes the columns to w and returns the total bytes
// written. All columns are independent; they need not share a length.
func WriteColumns(w io.Writer, cols [][]uint32, enc Encoding) (int64, error) {
	header := make([]byte, 0, 8)
	header = append(header, magic...)
	header = append(header, version)
	header = binary.LittleEndian.AppendUint16(header, uint16(len(cols)))
	n, err := w.Write(header)
	total := int64(n)
	if err != nil {
		return total, err
	}
	for _, col := range cols {
		if len(col) > MaxColumnLen {
			return total, fmt.Errorf("columnar: column of %d values exceeds the %d-value limit", len(col), MaxColumnLen)
		}
		payload, used := encode(col, enc)
		meta := make([]byte, 0, 32)
		meta = append(meta, byte(used))
		meta = putUvarint(meta, uint64(len(col)))
		meta = putUvarint(meta, uint64(len(payload)))
		meta = binary.LittleEndian.AppendUint32(meta, crc32.ChecksumIEEE(payload))
		n, err = w.Write(meta)
		total += int64(n)
		if err != nil {
			return total, err
		}
		n, err = w.Write(payload)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadColumns reads a PCOL document written by WriteColumns.
func ReadColumns(r io.Reader) ([][]uint32, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("columnar: %w", err)
	}
	return DecodeColumns(data)
}

// DecodeColumns decodes a PCOL document from an in-memory buffer (the
// zero-copy path for callers that already hold the file bytes).
func DecodeColumns(data []byte) ([][]uint32, error) {
	if len(data) < 7 || string(data[:4]) != magic {
		return nil, fmt.Errorf("columnar: bad magic")
	}
	if data[4] != version {
		return nil, fmt.Errorf("columnar: unsupported version %d", data[4])
	}
	ncols := binary.LittleEndian.Uint16(data[5:7])
	pos := 7
	cols := make([][]uint32, 0, ncols)
	for c := 0; c < int(ncols); c++ {
		if pos >= len(data) {
			return nil, fmt.Errorf("columnar: truncated column %d header", c)
		}
		enc := Encoding(data[pos])
		pos++
		count, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("columnar: column %d: bad count", c)
		}
		pos += n
		plen, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("columnar: column %d: bad payload length", c)
		}
		pos += n
		if pos+4 > len(data) {
			return nil, fmt.Errorf("columnar: column %d: truncated checksum", c)
		}
		sum := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		if uint64(len(data)-pos) < plen {
			return nil, fmt.Errorf("columnar: column %d: truncated payload", c)
		}
		payload := data[pos : pos+int(plen)]
		pos += int(plen)
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("columnar: column %d: checksum mismatch", c)
		}
		// Plain and Delta spend at least one payload byte per value.
		if count > MaxColumnLen || enc != DictRLE && count > plen {
			return nil, fmt.Errorf("columnar: column %d: %d values in a %d-byte payload", c, count, plen)
		}
		var col []uint32
		var err error
		switch enc {
		case Plain:
			col, err = decodePlain(payload, count)
		case Delta:
			col, err = decodeDelta(payload, count)
		case DictRLE:
			col, err = decodeDictRLE(payload, count)
		default:
			err = fmt.Errorf("unknown encoding %d", enc)
		}
		if err != nil {
			return nil, fmt.Errorf("columnar: column %d: %w", c, err)
		}
		cols = append(cols, col)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("columnar: %d trailing bytes", len(data)-pos)
	}
	return cols, nil
}

// EncodedSize returns the byte size the columns would occupy on disk under
// enc, without writing anywhere — or encoding anything: it runs the exact
// size estimators only. Used by storage-footprint accounting.
func EncodedSize(cols [][]uint32, enc Encoding) int64 {
	total := int64(7)
	for _, col := range cols {
		plen := payloadSize(col, enc)
		total += int64(1 + uvarintLen(uint64(len(col))) + uvarintLen(uint64(plen)) + 4 + plen)
	}
	return total
}
