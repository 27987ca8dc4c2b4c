package obs

import "testing"

// FuzzParseTraceparent checks the traceparent parser, which reads a
// header any client sends, never panics, and that every accepted value
// renders to a header that parses back to the same context.
func FuzzParseTraceparent(f *testing.F) {
	seeds := []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		" 00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01 ",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted an invalid context from %q: %+v", h, tc)
		}
		rendered := tc.Traceparent()
		again, ok := ParseTraceparent(rendered)
		if !ok || again != tc {
			t.Fatalf("%q parsed to %+v, rendered as %q, which parses to %+v (ok=%v)", h, tc, rendered, again, ok)
		}
	})
}
