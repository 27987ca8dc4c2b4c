package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, made from the
// benchmark's own files. Spans of one replayed query share Lineage;
// Parent is the ID of the span that caused this one (0 for a lineage's
// root). Times are nanoseconds since the tracer was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Lineage int    `json:"lineage"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, lineage int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Lineage: lineage, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// time records fn as one span.
func (t *tracer) time(name string, parent, lineage int, fn func()) time.Duration {
	id := t.begin(name, parent, lineage)
	fn()
	return t.end(id)
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return out
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
