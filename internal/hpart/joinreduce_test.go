package hpart

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// writeJoinsFile installs raw bytes as the layout's persisted reductions.
func writeJoinsFile(t testing.TB, lay *Layout, data []byte) {
	t.Helper()
	w, err := lay.fs.Create(joinsPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadIgnoresLyingJoinsCount: a 16-byte joins.jrd — magic, the
// layout's base signature, and a count of 2^24 entries that never
// follow — is a corrupt file: Load ignores it, and allocates for the
// bytes it read, not for the entries the count claims.
func TestLoadIgnoresLyingJoinsCount(t *testing.T) {
	g := randomGraph(24, 40, 4)
	lay := rebuild(t, g)
	data := binary.LittleEndian.AppendUint32(nil, joinsMagic)
	data = binary.LittleEndian.AppendUint64(data, lay.BaseSignature())
	data = binary.LittleEndian.AppendUint32(data, 1<<24)
	writeJoinsFile(t, lay, data)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, err := Load(lay.FS(), g.Dict)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(loaded.JoinReductions()); n != 0 {
		t.Fatalf("loaded %d reductions from a corrupt file", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Load allocated %d bytes for a 16-byte joins file", alloc)
	}
}

// FuzzReadJoins hammers the decoder of advisor/joins.jrd, which Load
// runs at start-up: no input may panic or allocate for entries it does
// not carry, and accepted reductions must survive a re-encode.
func FuzzReadJoins(f *testing.F) {
	g := randomGraph(24, 40, 4)
	lay, err := Partition(g, Options{})
	if err != nil {
		f.Fatal(err)
	}
	key := JoinKey{PropA: g.Dict.LookupIRI("http://x/p0"), PropB: g.Dict.LookupIRI("http://x/p1"), RoleA: JoinSubject, RoleB: JoinObject}
	red, err := lay.BuildJoinReduction(key)
	if err != nil {
		f.Fatal(err)
	}
	lay.SetJoinReductions(map[JoinKey]*JoinReduction{key: red})
	var buf bytes.Buffer
	if err := lay.writeJoins(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(binary.LittleEndian.AppendUint32(buf.Bytes()[:12:12], 1<<30))
	f.Fuzz(func(t *testing.T, data []byte) {
		writeJoinsFile(t, lay, data)
		joins, err := lay.readJoins()
		if err != nil || joins == nil {
			return
		}
		lay.SetJoinReductions(joins)
		var out bytes.Buffer
		if err := lay.writeJoins(&out); err != nil {
			t.Fatal(err)
		}
		writeJoinsFile(t, lay, out.Bytes())
		again, err := lay.readJoins()
		if err != nil {
			t.Fatalf("re-encoded reductions do not decode: %v", err)
		}
		if len(again) != len(joins) {
			t.Fatalf("round trip: %d reductions, want %d", len(again), len(joins))
		}
		for k, r := range joins {
			a := again[k]
			if a == nil || a.Filter.Bits() != r.Filter.Bits() || len(a.Pruned) != len(r.Pruned) {
				t.Fatalf("reduction %v does not round-trip", k)
			}
			for sk := range r.Pruned {
				if !a.Pruned[sk] {
					t.Fatalf("reduction %v lost pruned %v", k, sk)
				}
			}
		}
	})
}
