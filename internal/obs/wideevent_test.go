package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEventLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.ndjson")
	rf, err := OpenRotatingFile(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	log := NewEventLog(rf, 16, reg)

	want := WideEvent{
		TraceID:            "0123456789abcdef0123456789abcdef",
		Fingerprint:        "fp1",
		Shape:              "star",
		Canonical:          "SELECT ...",
		Query:              "SELECT * WHERE { ?x ?p ?y }",
		Epoch:              7,
		LayoutSig:          0xdeadbeef,
		Strategy:           "level",
		BudgetSteps:        2,
		Segments:           2,
		ResumedFrom:        "aabbcc",
		Steps:              3,
		StepMs:             []float64{1.5, 2.5, 3.5},
		Coverage:           []float64{0.2, 0.6, 1},
		StepsToFirstAnswer: 1,
		CoverageAtFirst:    0.2,
		Answers:            42,
		RowsLoaded:         1000,
		CacheHits:          3,
		CacheMisses:        5,
		Degraded:           true,
		MissingSubParts:    2,
		LatencyMs:          12.75,
	}
	if !log.Emit(want) {
		t.Fatal("Emit rejected")
	}
	if !log.Emit(WideEvent{Fingerprint: "fp2", Error: "boom"}) {
		t.Fatal("Emit rejected second event")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadWideEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2", len(events))
	}
	got := events[0]
	if got.Time == "" {
		t.Fatal("Emit did not stamp Time")
	}
	got.Time = ""
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", gj, wj)
	}
	if events[1].Error != "boom" {
		t.Fatalf("second event error = %q", events[1].Error)
	}
	if v := reg.Counter("wideevent_emitted_total", nil).Value(); v != 2 {
		t.Fatalf("wideevent_emitted_total = %d, want 2", v)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var log *EventLog
	if log.Emit(WideEvent{}) {
		t.Fatal("nil EventLog accepted an event")
	}
	if log.Dropped() != 0 {
		t.Fatal("nil EventLog has drops")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadWideEventsSkipsBlanksRejectsGarbage(t *testing.T) {
	good := "{\"fingerprint\":\"a\"}\n\n{\"fingerprint\":\"b\"}\n"
	events, err := ReadWideEvents(strings.NewReader(good))
	if err != nil || len(events) != 2 {
		t.Fatalf("got %d events, err %v", len(events), err)
	}
	if _, err := ReadWideEvents(bytes.NewReader([]byte("not json\n"))); err == nil {
		t.Fatal("malformed line accepted")
	}
}
