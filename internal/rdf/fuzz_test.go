package rdf

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseNTriples checks the parser never panics and that everything it
// accepts round-trips through the writer.
func FuzzParseNTriples(f *testing.F) {
	seeds := []string{
		sampleNT,
		`<a> <b> <c> .`,
		`_:b <p> "lit"@en .`,
		`<s> <p> "x\"y\\z" .`,
		`<s> <p> "1"^^<http://www.w3.org/2001/XMLSchema#int> .`,
		`# comment only`,
		`<s> <p> `,
		`"bad" <p> <o> .`,
		strings.Repeat(`<s> <p> <o> .`+"\n", 5),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseNTriples(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must round-trip.
		var buf strings.Builder
		if _, err := WriteNTriples(&buf, g); err != nil {
			t.Fatalf("write after parse: %v", err)
		}
		g2, err := ParseNTriples(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput:\n%s", err, buf.String())
		}
		if g2.Len() != g.Len() {
			t.Fatalf("round trip changed triple count: %d -> %d", g.Len(), g2.Len())
		}
	})
}

// FuzzReadDict hammers the dictionary decoder every store start runs,
// on the base (ReadDict) and on a segment appended to a non-empty
// dictionary (ReadSegment): no input may panic or allocate for terms it
// does not carry, and what it accepts must round-trip through WriteTo
// and WriteSegment.
func FuzzReadDict(f *testing.F) {
	// The adversarial seeds at a thousandth of the size: from megabyte
	// seeds the fuzzer spends its minute minimizing what it grows from
	// them and runs a few thousand inputs instead of hundreds of
	// thousands.
	for _, s := range readDictSeeds(200, 1<<10) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if d, err := ReadDict(strings.NewReader(input)); err == nil {
			var out strings.Builder
			if _, err := d.WriteTo(&out); err != nil {
				t.Fatal(err)
			}
			again, err := ReadDict(strings.NewReader(out.String()))
			if err != nil || again.Len() != d.Len() || again.Sig() != d.Sig() {
				t.Fatalf("accepted dictionary does not round-trip: %v", err)
			}
		}
		d := NewDict()
		d.Encode(NewIRI("http://x/seed"))
		if err := d.ReadSegment(strings.NewReader(input)); err != nil {
			return
		}
		var seg strings.Builder
		if _, err := d.WriteSegment(&seg, 1, d.Len()); err != nil {
			t.Fatal(err)
		}
		again := NewDict()
		again.Encode(NewIRI("http://x/seed"))
		if err := again.ReadSegment(strings.NewReader(seg.String())); err != nil || again.Sig() != d.Sig() {
			t.Fatalf("accepted segment does not round-trip: %v", err)
		}
	})
}

// readDictSeeds is FuzzReadDict's seed corpus, which
// TestReadDictAllocationBound also reads. The last four are
// adversarial: a literal of about literalBytes full of escapes, that
// many short blank nodes, a count of 10^9 over three lines, and lines
// that are not in canonical form.
func readDictSeeds(blankNodes, literalBytes int) []string {
	var blanks strings.Builder
	fmt.Fprintf(&blanks, "%d\n", blankNodes)
	for i := range blankNodes {
		fmt.Fprintf(&blanks, "_:b%06d\n", i)
	}
	return []string{
		"2\n<http://x/a>\n\"lit\"@en\n",
		"1\n_:b\n",
		"0\n",
		"3\n<a>\n<a>\n<b>\n",
		"99999999999\n<a>\n",
		"1\n<a> trailing\n",
		"-1\n",
		"",
		"1\n\"" + strings.Repeat(`\"\\\n\t`, literalBytes/8) + "\"\n",
		blanks.String(),
		"1000000000\n<a>\n<b>\n<c>\n",
		"3\n <http://x/a>\t\n\"tab\there\"\n\"u\\u0041\"^^<http://x/t> \n",
	}
}
