package workload

import (
	"io"

	"ping/internal/obs"
)

// ObservationFromEvent converts one wide query event back into the
// profiler's per-lineage observation, so a wide-event stream can be
// replayed into a Profiler offline (pingworkload -events) and produce
// the same aggregates the live server would have.
func ObservationFromEvent(ev obs.WideEvent) Observation {
	return Observation{
		Latency:               ev.Latency(),
		Steps:                 ev.Steps,
		Segments:              ev.Segments,
		StepsToFirstAnswer:    ev.StepsToFirstAnswer,
		CoverageAtFirstAnswer: ev.CoverageAtFirst,
		Coverage:              append([]float64(nil), ev.Coverage...),
		Answers:               ev.Answers,
		Epoch:                 ev.Epoch,
		Degraded:              ev.Degraded,
		Error:                 ev.Error != "",

		TaskSeconds:      ev.TaskMs / 1000,
		RowsLoaded:       ev.RowsLoaded,
		BytesDecoded:     ev.BytesDecoded,
		StorageBytesRead: ev.StorageBytesRead,
		CacheBytesPinned: ev.CacheBytesPinned,
		DictDecodes:      ev.DictDecodes,
		PeakRelationRows: ev.PeakRelationRows,
	}
}

// SlowQueryFromEvent converts one wide query event into its slow-query
// log record (Time, LatencyMs and ThresholdMs are stamped by
// SlowLog.Observe). Lineages that delivered no step carry no plan.
func SlowQueryFromEvent(ev obs.WideEvent) SlowQuery {
	sq := SlowQuery{
		Fingerprint: ev.Fingerprint,
		Canonical:   ev.Canonical,
		Query:       ev.Query,
		Epoch:       ev.Epoch,
		StepMs:      ev.StepMs,
		Answers:     ev.Answers,
		Degraded:    ev.Degraded,
		Error:       ev.Error,
	}
	if ev.Steps > 0 {
		sq.Plan = &PlanSummary{
			Strategy: ev.Strategy,
			Steps:    ev.Steps,
			SubParts: ev.SubParts,
			MaxLevel: ev.MaxLevel,
		}
	}
	return sq
}

// ReplayEvents folds a wide-event NDJSON stream into a fresh profiler
// and returns it with the number of events replayed.
func ReplayEvents(r io.Reader, opts Options) (*Profiler, int, error) {
	events, err := obs.ReadWideEvents(r)
	if err != nil {
		return nil, 0, err
	}
	p := NewProfiler(opts)
	for _, ev := range events {
		p.ObserveFingerprint(ev.Fingerprint, ev.Canonical, ev.Shape, ObservationFromEvent(ev))
	}
	return p, len(events), nil
}
