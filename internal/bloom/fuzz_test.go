package bloom

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzBloomRead hammers the filter decoder behind every Bloom and
// join-reduction file read from storage: no input may panic or allocate
// for bits it does not carry, and any input it accepts must re-encode
// to the bytes it consumed.
func FuzzBloomRead(f *testing.F) {
	filter := New(256, 3)
	filter.Add(7)
	var buf bytes.Buffer
	if _, err := filter.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A header claiming 2^36 bits with none following.
	huge := append([]byte(magic), make([]byte, 20)...)
	binary.LittleEndian.PutUint64(huge[4:], 1<<36)
	binary.LittleEndian.PutUint32(huge[12:], 3)
	f.Add(huge)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := g.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted filter does not round-trip")
		}
	})
}
