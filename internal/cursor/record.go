// Package cursor makes progressive queries durable: a paused PQA
// (budget exhausted, client disconnected, server draining) is frozen as
// a Record — the ping.Checkpoint plus lineage bookkeeping — addressed
// by an opaque client token. Records hibernate through the dfs layer,
// so a cursor survives a full server restart; the epoch pin it holds is
// a TTL lease (hpart.PinLease), so a cursor a client never comes back
// for can never block storage GC.
//
// The on-disk / on-wire record format is versioned and checksummed:
//
//	"PQC1" | version u8 | payload len u32 LE | payload | CRC32-IEEE(payload) u32 LE
//
// The payload is a varint-packed field sequence (see appendRecord). The
// decoder is defensive — every count is bounds-checked against the
// remaining input before allocation — because records come back from
// disk and tokens from untrusted clients; DecodeRecord is fuzzed.
package cursor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs/prof"
	"ping/internal/ping"
)

// recordMagic and recordVersion identify the serialized format; bump
// the version on any payload layout change.
const (
	recordMagic   = "PQC1"
	recordVersion = 4 // v4 dropped the checkpoint's evaluation-mode flag
)

var (
	// ErrBadRecord reports a record that failed structural validation
	// (magic, version, length, checksum, or payload layout).
	ErrBadRecord = errors.New("cursor: malformed record")
)

// Record is the durable state of one query lineage: everything needed
// to resume the run, plus the bookkeeping that lets the workload
// profiler observe the lineage exactly once at completion.
type Record struct {
	// ID addresses the cursor; it is embedded in every client token.
	ID [16]byte
	// Fingerprint is the workload-profiler fingerprint of the query, so
	// a resumed lineage aggregates under the same shape as its first
	// segment.
	Fingerprint string
	// Created and LastUsed are unix nanoseconds; LastUsed drives idle
	// eviction and TTL expiry.
	Created  int64
	LastUsed int64
	// Segments counts run segments so far (1 = the initial run);
	// LatencyNS sums their wall-clock time, so the lineage's total
	// latency is observed once, not once per segment.
	Segments  int
	LatencyNS int64
	// Restarted marks a lineage whose epoch lease expired under it: the
	// data moved on, and the run restarted from scratch on the current
	// snapshot. Delivered answers remain sound; only the "resume skips
	// completed steps" economy is lost.
	Restarted bool
	// StepAnswers holds the cumulative answer count after each completed
	// lineage step, so the workload profiler's coverage curve spans the
	// whole lineage, not just the final segment.
	StepAnswers []int
	// StepMs, SubParts, CacheHits, CacheMisses and Cost total what the
	// lineage's completed segments measurably did: per-step wall time,
	// sub-partitions loaded, decoded-sub-partition cache behaviour and
	// the resource ledger (sums, with maxima for the two peaks). The
	// completing segment adds its own share, so the lineage's wide event
	// covers every segment, not just the last.
	StepMs      []float64
	SubParts    int
	CacheHits   int64
	CacheMisses int64
	Cost        prof.Snapshot
	// Checkpoint is the resumable PQA state (see ping.Checkpoint).
	Checkpoint ping.Checkpoint
}

// EncodeRecord serializes r into the framed, checksummed format.
func EncodeRecord(r *Record) []byte {
	payload := appendRecord(nil, r)
	buf := make([]byte, 0, len(recordMagic)+1+4+len(payload)+4)
	buf = append(buf, recordMagic...)
	buf = append(buf, recordVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf
}

// DecodeRecord parses a framed record, validating magic, version,
// length, checksum, and payload layout.
func DecodeRecord(data []byte) (*Record, error) {
	head := len(recordMagic) + 1 + 4
	if len(data) < head+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadRecord, len(data))
	}
	if string(data[:len(recordMagic)]) != recordMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadRecord)
	}
	if v := data[len(recordMagic)]; v != recordVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadRecord, v)
	}
	n := binary.LittleEndian.Uint32(data[len(recordMagic)+1:])
	if uint32(len(data)-head-4) != n {
		return nil, fmt.Errorf("%w: payload length %d in %d-byte frame", ErrBadRecord, n, len(data))
	}
	payload := data[head : head+int(n)]
	if crc := binary.LittleEndian.Uint32(data[head+int(n):]); crc != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadRecord)
	}
	r, rest, err := decodeRecord(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadRecord, len(rest))
	}
	return r, nil
}

func appendRecord(buf []byte, r *Record) []byte {
	buf = append(buf, r.ID[:]...)
	buf = appendString(buf, r.Fingerprint)
	buf = binary.AppendUvarint(buf, uint64(r.Created))
	buf = binary.AppendUvarint(buf, uint64(r.LastUsed))
	buf = binary.AppendUvarint(buf, uint64(r.Segments))
	buf = binary.AppendUvarint(buf, uint64(r.LatencyNS))
	buf = appendBool(buf, r.Restarted)
	buf = binary.AppendUvarint(buf, uint64(len(r.StepAnswers)))
	for _, n := range r.StepAnswers {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.StepMs)))
	for _, ms := range r.StepMs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ms))
	}
	buf = binary.AppendUvarint(buf, uint64(r.SubParts))
	for _, v := range r.counters() {
		buf = binary.AppendUvarint(buf, uint64(*v))
	}
	return appendCheckpoint(buf, &r.Checkpoint)
}

func decodeRecord(data []byte) (*Record, []byte, error) {
	r := &Record{}
	if len(data) < len(r.ID) {
		return nil, nil, fmt.Errorf("%w: short id", ErrBadRecord)
	}
	copy(r.ID[:], data)
	data = data[len(r.ID):]
	var err error
	if r.Fingerprint, data, err = decodeString(data); err != nil {
		return nil, nil, err
	}
	var u uint64
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, nil, err
	}
	r.Created = int64(u)
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, nil, err
	}
	r.LastUsed = int64(u)
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, nil, err
	}
	if u > math.MaxInt32 {
		return nil, nil, fmt.Errorf("%w: %d segments", ErrBadRecord, u)
	}
	r.Segments = int(u)
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, nil, err
	}
	r.LatencyNS = int64(u)
	if r.Restarted, data, err = decodeBool(data); err != nil {
		return nil, nil, err
	}
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, nil, err
	}
	if u > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%w: %d step answers in %d bytes", ErrBadRecord, u, len(data))
	}
	if u > 0 {
		r.StepAnswers = make([]int, u)
		for i := range r.StepAnswers {
			var v uint64
			if v, data, err = decodeUvarint(data); err != nil {
				return nil, nil, err
			}
			if v > math.MaxInt32 {
				return nil, nil, fmt.Errorf("%w: step answer count %d", ErrBadRecord, v)
			}
			r.StepAnswers[i] = int(v)
		}
	}
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, nil, err
	}
	if u > uint64(len(data)/8) {
		return nil, nil, fmt.Errorf("%w: %d step times in %d bytes", ErrBadRecord, u, len(data))
	}
	if u > 0 {
		r.StepMs = make([]float64, u)
		for i := range r.StepMs {
			r.StepMs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
	}
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, nil, err
	}
	if u > math.MaxInt32 {
		return nil, nil, fmt.Errorf("%w: %d sub-partitions", ErrBadRecord, u)
	}
	r.SubParts = int(u)
	for _, v := range r.counters() {
		if u, data, err = decodeUvarint(data); err != nil {
			return nil, nil, err
		}
		if u > math.MaxInt64 {
			return nil, nil, fmt.Errorf("%w: counter %d", ErrBadRecord, u)
		}
		*v = int64(u)
	}
	if data, err = decodeCheckpoint(data, &r.Checkpoint); err != nil {
		return nil, nil, err
	}
	return r, data, nil
}

// counters lists the record's int64 lineage totals in wire order.
func (r *Record) counters() []*int64 {
	c := &r.Cost
	return []*int64{&r.CacheHits, &r.CacheMisses, &c.TaskNanos, &c.RowsLoaded, &c.BytesDecoded,
		&c.StorageBytesRead, &c.CacheBytesPinned, &c.DictDecodes, &c.PeakRelationRows}
}

func appendCheckpoint(buf []byte, cp *ping.Checkpoint) []byte {
	buf = appendString(buf, cp.Query)
	buf = binary.AppendUvarint(buf, uint64(cp.Strategy))
	buf = binary.AppendUvarint(buf, uint64(cp.FailurePolicy))
	buf = binary.AppendUvarint(buf, cp.Epoch)
	buf = binary.AppendUvarint(buf, cp.LayoutSig)
	buf = binary.AppendUvarint(buf, uint64(cp.DictLen))
	buf = binary.AppendUvarint(buf, cp.DictSig)
	buf = binary.AppendUvarint(buf, uint64(cp.StepsDone))
	buf = appendKeys(buf, cp.LoadedKeys)
	buf = appendKeys(buf, cp.MissingKeys)
	buf = binary.AppendUvarint(buf, uint64(cp.RowsLoadedCum))
	buf = binary.AppendUvarint(buf, uint64(cp.ElapsedCum))
	buf = binary.AppendUvarint(buf, uint64(cp.PrevAnswers))
	buf = binary.AppendUvarint(buf, uint64(len(cp.PatternRels)))
	for _, rel := range cp.PatternRels {
		buf = engine.AppendRelation(buf, rel)
	}
	if cp.Answers == nil {
		buf = appendBool(buf, false)
	} else {
		buf = appendBool(buf, true)
		buf = engine.AppendRelation(buf, cp.Answers)
	}
	return buf
}

func decodeCheckpoint(data []byte, cp *ping.Checkpoint) ([]byte, error) {
	var err error
	if cp.Query, data, err = decodeString(data); err != nil {
		return nil, err
	}
	var u uint64
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	if u > math.MaxInt32 {
		return nil, fmt.Errorf("%w: strategy %d", ErrBadRecord, u)
	}
	cp.Strategy = ping.SliceStrategy(u)
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	if u > math.MaxInt32 {
		return nil, fmt.Errorf("%w: failure policy %d", ErrBadRecord, u)
	}
	cp.FailurePolicy = ping.FailurePolicy(u)
	if cp.Epoch, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	if cp.LayoutSig, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	if u > math.MaxInt32 {
		return nil, fmt.Errorf("%w: dict length %d", ErrBadRecord, u)
	}
	cp.DictLen = int(u)
	if cp.DictSig, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	if u > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d steps", ErrBadRecord, u)
	}
	cp.StepsDone = int(u)
	if cp.LoadedKeys, data, err = decodeKeys(data); err != nil {
		return nil, err
	}
	if cp.MissingKeys, data, err = decodeKeys(data); err != nil {
		return nil, err
	}
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	cp.RowsLoadedCum = int64(u)
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	cp.ElapsedCum = time.Duration(u)
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	if u > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d prev answers", ErrBadRecord, u)
	}
	cp.PrevAnswers = int(u)
	if u, data, err = decodeUvarint(data); err != nil {
		return nil, err
	}
	if u > uint64(len(data)) {
		return nil, fmt.Errorf("%w: %d relations in %d bytes", ErrBadRecord, u, len(data))
	}
	if u > 0 {
		cp.PatternRels = make([]*engine.Relation, u)
		for i := range cp.PatternRels {
			if cp.PatternRels[i], data, err = engine.DecodeRelation(data); err != nil {
				return nil, fmt.Errorf("%w: relation %d: %v", ErrBadRecord, i, err)
			}
		}
	}
	var has bool
	if has, data, err = decodeBool(data); err != nil {
		return nil, err
	}
	if has {
		if cp.Answers, data, err = engine.DecodeRelation(data); err != nil {
			return nil, fmt.Errorf("%w: answers: %v", ErrBadRecord, err)
		}
	}
	return data, nil
}

func appendKeys(buf []byte, keys []hpart.SubPartKey) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(k.Level))
		buf = binary.AppendUvarint(buf, uint64(k.Prop))
	}
	return buf
}

func decodeKeys(data []byte) ([]hpart.SubPartKey, []byte, error) {
	n, data, err := decodeUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	// Each key takes at least two bytes.
	if n > uint64(len(data)/2) {
		return nil, nil, fmt.Errorf("%w: %d keys in %d bytes", ErrBadRecord, n, len(data))
	}
	if n == 0 {
		return nil, data, nil
	}
	keys := make([]hpart.SubPartKey, n)
	for i := range keys {
		var l, p uint64
		if l, data, err = decodeUvarint(data); err != nil {
			return nil, nil, err
		}
		if l > math.MaxInt32 {
			return nil, nil, fmt.Errorf("%w: level %d", ErrBadRecord, l)
		}
		if p, data, err = decodeUvarint(data); err != nil {
			return nil, nil, err
		}
		if p > math.MaxUint32 {
			return nil, nil, fmt.Errorf("%w: prop %d", ErrBadRecord, p)
		}
		keys[i] = hpart.SubPartKey{Level: int(l), Prop: uint32(p)}
	}
	return keys, data, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(data []byte) (string, []byte, error) {
	n, data, err := decodeUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(data)) {
		return "", nil, fmt.Errorf("%w: string of %d bytes in %d", ErrBadRecord, n, len(data))
	}
	return string(data[:n]), data[n:], nil
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func decodeBool(data []byte) (bool, []byte, error) {
	if len(data) < 1 {
		return false, nil, fmt.Errorf("%w: missing bool", ErrBadRecord)
	}
	switch data[0] {
	case 0:
		return false, data[1:], nil
	case 1:
		return true, data[1:], nil
	default:
		return false, nil, fmt.Errorf("%w: bool byte %d", ErrBadRecord, data[0])
	}
}

func decodeUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrBadRecord)
	}
	return v, data[n:], nil
}
