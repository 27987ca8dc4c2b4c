package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// SnapshotBucket is one histogram bucket in a snapshot (non-cumulative).
// Exemplar, when present, links the bucket to the trace of its latest
// traced observation.
type SnapshotBucket struct {
	LE       float64   `json:"le"`
	Count    int64     `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// MarshalJSON renders the +Inf bound as the string "+Inf" (JSON numbers
// cannot express infinity).
func (b SnapshotBucket) MarshalJSON() ([]byte, error) {
	le := any(b.LE)
	if math.IsInf(b.LE, 1) {
		le = "+Inf"
	}
	return json.Marshal(struct {
		LE       any       `json:"le"`
		Count    int64     `json:"count"`
		Exemplar *Exemplar `json:"exemplar,omitempty"`
	}{le, b.Count, b.Exemplar})
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" string.
func (b *SnapshotBucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE       json.RawMessage `json:"le"`
		Count    int64           `json:"count"`
		Exemplar *Exemplar       `json:"exemplar"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	b.Exemplar = raw.Exemplar
	if string(raw.LE) == `"+Inf"` {
		b.LE = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.LE, &b.LE)
}

// SnapshotMetric is one series frozen at snapshot time.
type SnapshotMetric struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counter (integral) and gauge values.
	Value float64 `json:"value,omitempty"`
	// Count/Sum/Buckets carry histogram state.
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []SnapshotBucket `json:"buckets,omitempty"`
}

// frozenSeries is one series' identity and metric handles, copied under
// the registry lock so exporters never read a family or series field that
// a concurrent registration is writing.
type frozenSeries struct {
	name, typ, help, sig string
	counter              *Counter
	gauge                *Gauge
	hist                 *Histogram
}

// freeze copies every series of the registry, sorted by name then label
// signature, while holding r.mu. Families described but never populated
// contribute no series.
func (r *Registry) freeze() []frozenSeries {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []frozenSeries
	for _, n := range names {
		f := r.families[n]
		sigs := append([]string(nil), f.order...)
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			out = append(out, frozenSeries{name: f.name, typ: f.typ, help: f.help, sig: sig,
				counter: s.counter, gauge: s.gauge, hist: s.hist})
		}
	}
	return out
}

// Snapshot freezes every series of the registry, sorted by name then
// label signature, so exports are deterministic.
func (r *Registry) Snapshot() []SnapshotMetric {
	frozen := r.freeze()
	out := make([]SnapshotMetric, 0, len(frozen))
	for _, fr := range frozen {
		m := SnapshotMetric{Name: fr.name, Type: fr.typ, Labels: parseLabels(fr.sig)}
		switch {
		case fr.counter != nil:
			m.Value = float64(fr.counter.Value())
		case fr.gauge != nil:
			m.Value = fr.gauge.Value()
		case fr.hist != nil:
			h := fr.hist
			m.Count = h.Count()
			m.Sum = h.Sum()
			counts := h.BucketCounts()
			exemplars := h.Exemplars()
			for i, b := range h.bounds {
				m.Buckets = append(m.Buckets, SnapshotBucket{LE: b, Count: counts[i], Exemplar: exemplars[i]})
			}
			m.Buckets = append(m.Buckets, SnapshotBucket{
				LE: math.Inf(1), Count: counts[len(counts)-1], Exemplar: exemplars[len(exemplars)-1],
			})
		}
		out = append(out, m)
	}
	return out
}

// parseLabels recovers the label map from a canonical signature. It only
// needs to undo renderLabels' escaping.
func parseLabels(sig string) map[string]string {
	if sig == "" {
		return nil
	}
	out := make(map[string]string)
	body := strings.TrimSuffix(strings.TrimPrefix(sig, "{"), "}")
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			break
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		out[key] = val.String()
		body = strings.TrimPrefix(rest[i:], `"`)
		body = strings.TrimPrefix(body, ",")
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE comments per family, one line
// per series, histogram buckets cumulative with the `le` label.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	family := ""
	for _, fr := range r.freeze() {
		if fr.name != family {
			family = fr.name
			if fr.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", fr.name, escapeHelp(fr.help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", fr.name, fr.typ)
		}
		switch {
		case fr.counter != nil:
			fmt.Fprintf(&b, "%s%s %d\n", fr.name, fr.sig, fr.counter.Value())
		case fr.gauge != nil:
			fmt.Fprintf(&b, "%s%s %s\n", fr.name, fr.sig, formatFloat(fr.gauge.Value()))
		case fr.hist != nil:
			writePromHistogram(&b, fr.name, fr.sig, fr.hist)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeHelp escapes a HELP text per the text exposition format 0.0.4:
// backslash becomes \\ and newline becomes \n. Backslashes must be
// escaped first — otherwise a help string containing a literal `\n`
// (backslash + 'n') and one containing a newline would render
// identically, and parsers would mis-decode the former.
func escapeHelp(help string) string {
	help = strings.ReplaceAll(help, `\`, `\\`)
	return strings.ReplaceAll(help, "\n", `\n`)
}

// writePromHistogram renders one histogram series: cumulative _bucket
// lines with le labels, then _sum and _count.
func writePromHistogram(b *strings.Builder, name, sig string, h *Histogram) {
	counts := h.BucketCounts()
	var cum int64
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(sig, formatFloat(bound)), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(sig, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, sig, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, sig, h.Count())
}

// mergeLE appends the le label to an existing label signature.
func mergeLE(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(sig, "}") + `,le="` + le + `"}`
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders the snapshot as a JSON document: {"metrics": [...]}.
// This also backs the /debug/vars endpoint.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []SnapshotMetric `json:"metrics"`
	}{Metrics: r.Snapshot()})
}
