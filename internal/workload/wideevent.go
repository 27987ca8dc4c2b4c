package workload

import (
	"io"

	"ping/internal/obs"
)

// ReplayEvents folds a wide-event NDJSON stream into a fresh profiler
// and returns it with the number of events replayed. It yields the
// aggregates the live server built from the same events
// (pingworkload -events).
func ReplayEvents(r io.Reader, opts Options) (*Profiler, int, error) {
	events, err := obs.ReadWideEvents(r)
	if err != nil {
		return nil, 0, err
	}
	p := NewProfiler(opts)
	for _, ev := range events {
		p.Observe(ev)
	}
	return p, len(events), nil
}
