package columnar

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, cols [][]uint32, enc Encoding) [][]uint32 {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteColumns(&buf, cols, enc)
	if err != nil {
		t.Fatalf("write(%v): %v", enc, err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteColumns reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadColumns(&buf)
	if err != nil {
		t.Fatalf("read(%v): %v", enc, err)
	}
	return got
}

func TestRoundTripAllEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sorted := make([]uint32, 1000)
	random := make([]uint32, 1000)
	lowCard := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i * 3)
		random[i] = rng.Uint32()
		lowCard[i] = uint32(rng.Intn(5))
	}
	cols := [][]uint32{sorted, random, lowCard, {}, {42}}
	for _, enc := range []Encoding{Plain, Delta, DictRLE, Auto} {
		got := roundTrip(t, cols, enc)
		if len(got) != len(cols) {
			t.Fatalf("%v: got %d columns, want %d", enc, len(got), len(cols))
		}
		for i := range cols {
			if len(got[i]) != len(cols[i]) {
				t.Fatalf("%v: col %d length %d != %d", enc, i, len(got[i]), len(cols[i]))
			}
			if len(cols[i]) > 0 && !reflect.DeepEqual(got[i], cols[i]) {
				t.Fatalf("%v: col %d differs", enc, i)
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, enc := range []Encoding{Plain, Delta, DictRLE, Auto} {
		enc := enc
		err := quick.Check(func(a, b []uint32) bool {
			got := roundTrip(t, [][]uint32{a, b}, enc)
			return len(got) == 2 &&
				(len(a) == 0 || reflect.DeepEqual(got[0], a)) &&
				(len(b) == 0 || reflect.DeepEqual(got[1], b))
		}, &quick.Config{MaxCount: 100})
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
	}
}

func TestAutoPicksSmallest(t *testing.T) {
	lowCard := make([]uint32, 10000)
	for i := range lowCard {
		lowCard[i] = uint32(i / 2500) // 4 long runs
	}
	var plainBuf, autoBuf bytes.Buffer
	if _, err := WriteColumns(&plainBuf, [][]uint32{lowCard}, Plain); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteColumns(&autoBuf, [][]uint32{lowCard}, Auto); err != nil {
		t.Fatal(err)
	}
	if autoBuf.Len() >= plainBuf.Len() {
		t.Errorf("Auto (%d bytes) not smaller than Plain (%d bytes) on RLE-friendly data",
			autoBuf.Len(), plainBuf.Len())
	}
}

func TestEncodedSizeMatchesWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cols := [][]uint32{make([]uint32, 500), make([]uint32, 300)}
	for _, c := range cols {
		for i := range c {
			c[i] = uint32(rng.Intn(1000))
		}
	}
	for _, enc := range []Encoding{Plain, Delta, DictRLE, Auto} {
		var buf bytes.Buffer
		if _, err := WriteColumns(&buf, cols, enc); err != nil {
			t.Fatal(err)
		}
		if got := EncodedSize(cols, enc); got != int64(buf.Len()) {
			t.Errorf("%v: EncodedSize = %d, wrote %d", enc, got, buf.Len())
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteColumns(&buf, [][]uint32{{1, 2, 3, 4, 5, 1000, 2000}}, Plain); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, mutate := range []struct {
		name string
		f    func([]byte) []byte
	}{
		{"magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xff; return c }},
		{"version", func(b []byte) []byte { c := clone(b); c[4] = 99; return c }},
		{"payload-bitflip", func(b []byte) []byte { c := clone(b); c[len(c)-1] ^= 0x01; return c }},
		{"truncated", func(b []byte) []byte { return clone(b)[:len(b)-3] }},
		{"trailing", func(b []byte) []byte { return append(clone(b), 0xAB) }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		if _, err := ReadColumns(bytes.NewReader(mutate.f(data))); err == nil {
			t.Errorf("%s corruption not detected", mutate.name)
		}
	}
}

func clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

func TestEncodingString(t *testing.T) {
	for e, want := range map[Encoding]string{Plain: "plain", Delta: "delta", DictRLE: "dict-rle", Auto: "auto"} {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), want)
		}
	}
	if !strings.Contains(Encoding(7).String(), "7") {
		t.Error("unknown encoding rendering")
	}
}

func TestZeroColumns(t *testing.T) {
	got := roundTrip(t, nil, Auto)
	if len(got) != 0 {
		t.Errorf("zero-column file read back %d columns", len(got))
	}
}

// TestSizeEstimatorsExact: the counting estimators must report exactly
// the payload length the encoders produce, across data shapes (sorted,
// random, low-cardinality, adversarial), so Auto's fast path can never
// pick a different winner than encoding everything would.
func TestSizeEstimatorsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := map[string]func(n int) []uint32{
		"empty": func(n int) []uint32 { return nil },
		"sorted": func(n int) []uint32 {
			v := make([]uint32, n)
			for i := range v {
				v[i] = uint32(i * 3)
			}
			return v
		},
		"random": func(n int) []uint32 {
			v := make([]uint32, n)
			for i := range v {
				v[i] = rng.Uint32()
			}
			return v
		},
		"lowcard": func(n int) []uint32 {
			v := make([]uint32, n)
			for i := range v {
				v[i] = uint32(rng.Intn(4)) * 1e6
			}
			return v
		},
		"runs": func(n int) []uint32 {
			v := make([]uint32, n)
			for i := range v {
				v[i] = uint32(i / 100)
			}
			return v
		},
		"sawtooth": func(n int) []uint32 {
			v := make([]uint32, n)
			for i := range v {
				v[i] = uint32(i % 7 * 1 << 20)
			}
			return v
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{0, 1, 2, 100, 1000} {
			vals := gen(n)
			if got, want := sizePlain(vals), len(encodePlain(vals)); got != want {
				t.Errorf("%s/%d: sizePlain = %d, encodePlain = %d", name, n, got, want)
			}
			if got, want := sizeDelta(vals), len(encodeDelta(vals)); got != want {
				t.Errorf("%s/%d: sizeDelta = %d, encodeDelta = %d", name, n, got, want)
			}
			if got, want := sizeDictRLE(vals), len(encodeDictRLE(vals)); got != want {
				t.Errorf("%s/%d: sizeDictRLE = %d, encodeDictRLE = %d", name, n, got, want)
			}
		}
	}
}

// TestAutoChoiceMatchesBruteForce: Auto through the size estimators must
// choose the same encoding, with the same tie-break (Plain beats Delta
// beats DictRLE at equal size), as encoding all three and comparing.
func TestAutoChoiceMatchesBruteForce(t *testing.T) {
	check := func(vals []uint32) bool {
		bruteBest, bruteEnc := encodePlain(vals), Plain
		if d := encodeDelta(vals); len(d) < len(bruteBest) {
			bruteBest, bruteEnc = d, Delta
		}
		if d := encodeDictRLE(vals); len(d) < len(bruteBest) {
			bruteBest, bruteEnc = d, DictRLE
		}
		payload, used := encode(vals, Auto)
		return used == bruteEnc && bytes.Equal(payload, bruteBest)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Shapes quick.Check is unlikely to hit: ties and long runs.
	for _, vals := range [][]uint32{
		nil, {0}, {0, 0, 0}, {1, 2, 3, 4}, {5, 5, 5, 5, 5, 5, 5, 5},
	} {
		if !check(vals) {
			t.Errorf("Auto choice diverged from brute force on %v", vals)
		}
	}
}

// TestAutoRunBoundMatchesExhaustive: chooseAuto skips sizing DictRLE
// when its run-count floor cannot win. On random and adversarial columns
// — empty, constant, sorted distinct, alternating runs, and run lengths
// around the point where DictRLE starts to win — it must return the same
// encoding and size as the exhaustive three-way minimum.
func TestAutoRunBoundMatchesExhaustive(t *testing.T) {
	exhaustive := func(vals []uint32) (Encoding, int) {
		best, enc := sizePlain(vals), Plain
		if d := sizeDelta(vals); d < best {
			best, enc = d, Delta
		}
		if d := sizeDictRLE(vals); d < best {
			best, enc = d, DictRLE
		}
		return enc, best
	}
	rng := rand.New(rand.NewSource(29))
	var cols [][]uint32
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		constant := make([]uint32, n)
		sorted := make([]uint32, n)
		big := make([]uint32, n)
		for i := range sorted {
			constant[i] = 1 << 30
			sorted[i] = uint32(i)
			big[i] = uint32(i) << 20
		}
		cols = append(cols, constant, sorted, big)
		for run := 1; run <= 5; run++ {
			for _, gap := range []uint32{1, 200, 1 << 25} {
				alt := make([]uint32, n)
				for i := range alt {
					alt[i] = uint32(i/run%2) * gap
				}
				cols = append(cols, alt)
			}
		}
		for k := 0; k < 20; k++ {
			r := make([]uint32, n)
			card := 1 + rng.Intn(8)
			for i := range r {
				r[i] = uint32(rng.Intn(card)) << uint(rng.Intn(28))
				if i > 0 && rng.Intn(3) > 0 {
					r[i] = r[i-1]
				}
			}
			cols = append(cols, r)
		}
	}
	for _, vals := range cols {
		gotEnc, gotSize := chooseAuto(vals)
		wantEnc, wantSize := exhaustive(vals)
		if gotEnc != wantEnc || gotSize != wantSize {
			t.Fatalf("chooseAuto(%v) = %v/%d, exhaustive %v/%d", vals, gotEnc, gotSize, wantEnc, wantSize)
		}
	}
	if err := quick.Check(func(vals []uint32) bool {
		gotEnc, gotSize := chooseAuto(vals)
		wantEnc, wantSize := exhaustive(vals)
		return gotEnc == wantEnc && gotSize == wantSize
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// BenchmarkAutoEncode measures the Auto write path (size-estimate three,
// encode one) against brute-force triple encoding, on a mixed set of
// columns like the hpart indexes produce.
func BenchmarkAutoEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	cols := make([][]uint32, 4)
	for c := range cols {
		col := make([]uint32, 4096)
		for i := range col {
			switch c {
			case 0:
				col[i] = uint32(i) // sorted: Delta wins
			case 1:
				col[i] = rng.Uint32() // random: Plain wins
			case 2:
				col[i] = uint32(i / 512) // runs: DictRLE wins
			default:
				col[i] = uint32(rng.Intn(100))
			}
		}
		cols[c] = col
	}
	b.Run("estimated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, col := range cols {
				encode(col, Auto)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, col := range cols {
				best, _ := encodePlain(col), Plain
				if d := encodeDelta(col); len(d) < len(best) {
					best = d
				}
				if d := encodeDictRLE(col); len(d) < len(best) {
					best = d
				}
				_ = best
			}
		}
	})
	b.Run("encodedsize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodedSize(cols, Auto)
		}
	})
}

// FuzzDecodeColumns hammers the decoder every sub-partition and index
// file read from storage goes through: no input may panic, and any
// input it accepts must round-trip through WriteColumns.
func FuzzDecodeColumns(f *testing.F) {
	for _, enc := range []Encoding{Plain, Delta, DictRLE, Auto} {
		var buf bytes.Buffer
		if _, err := WriteColumns(&buf, [][]uint32{{1, 2, 3, 1 << 31}, {7, 7, 7, 7, 9}, {}}, enc); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, err := DecodeColumns(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := WriteColumns(&buf, cols, Auto); err != nil {
			t.Fatalf("accepted columns do not re-encode: %v", err)
		}
		again, err := DecodeColumns(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded columns do not decode: %v", err)
		}
		if len(again) != len(cols) {
			t.Fatalf("round trip: %d columns, want %d", len(again), len(cols))
		}
		for i := range cols {
			if len(again[i]) != len(cols[i]) || len(cols[i]) > 0 && !reflect.DeepEqual(again[i], cols[i]) {
				t.Fatalf("column %d does not round-trip", i)
			}
		}
	})
}
