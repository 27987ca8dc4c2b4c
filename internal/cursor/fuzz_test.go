package cursor

import (
	"bytes"
	"testing"

	"ping/internal/obs/prof"
)

// FuzzParseToken hammers the client-token decoder: it must never panic,
// and anything it accepts must re-encode to a token that parses to the
// same (id, step).
func FuzzParseToken(f *testing.F) {
	f.Add(Token([16]byte{1, 2, 3}, 1))
	f.Add(Token([16]byte{0xff, 0xee}, 65535))
	f.Add(Token([16]byte{}, maxTokenStep))
	f.Add("pqc.")
	f.Add("pqc.AAAAAAAAAAAAAAAAAAAAAAAAAAAA")
	f.Add("not-a-token")
	f.Fuzz(func(t *testing.T, tok string) {
		id, step, err := ParseToken(tok)
		if err != nil {
			return
		}
		if step < 1 || step > maxTokenStep {
			t.Fatalf("accepted out-of-range step %d", step)
		}
		rid, rstep, err := ParseToken(Token(id, step))
		if err != nil || rid != id || rstep != step {
			t.Fatalf("re-encode of accepted token diverges: %v", err)
		}
	})
}

// FuzzDecodeRecord hammers the durable-record decoder with raw bytes:
// no panic, no unbounded allocation, and accepted records round-trip.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(EncodeRecord(sampleRecord()))
	f.Add(EncodeRecord(&Record{}))
	small := sampleRecord()
	small.Checkpoint.PatternRels = nil
	small.Checkpoint.Answers = nil
	f.Add(EncodeRecord(small))
	totals := sampleRecord()
	totals.StepMs = []float64{0.25, 1.5, 3}
	totals.SubParts = 7
	totals.CacheHits, totals.CacheMisses = 5, 2
	totals.Cost = prof.Snapshot{TaskNanos: 1e6, RowsLoaded: 300, BytesDecoded: 4096,
		StorageBytesRead: 2048, CacheBytesPinned: 8192, DictDecodes: 60, PeakRelationRows: 90}
	f.Add(EncodeRecord(totals))
	for _, v := range []byte{2, 3} { // pre-totals and pre-v4 formats: refused
		old := EncodeRecord(totals)
		old[len(recordMagic)] = v
		f.Add(old)
	}
	f.Add([]byte("PQC1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		// Accepted input must be byte-identical to the canonical
		// encoding (the format has no redundancy to hide mutations in).
		if !bytes.Equal(EncodeRecord(rec), data) {
			t.Fatal("accepted record does not re-encode canonically")
		}
	})
}
