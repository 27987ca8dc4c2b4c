package cursor

import (
	"errors"
	"testing"
	"time"

	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/ping"
	"ping/internal/rdf"
)

func sampleCheckpoint() *ping.Checkpoint {
	return &ping.Checkpoint{
		Query:         `SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`,
		Strategy:      ping.LargestFirst,
		FailurePolicy: ping.Degrade,
		Epoch:         3,
		LayoutSig:     0xdeadbeefcafe,
		DictLen:       512,
		DictSig:       0xfeedface12345678,
		StepsDone:     2,
		LoadedKeys:    []hpart.SubPartKey{{Level: 1, Prop: 0}, {Level: 2, Prop: 1}},
		MissingKeys:   []hpart.SubPartKey{{Level: 3, Prop: 7}},
		RowsLoadedCum: 12345,
		ElapsedCum:    87 * time.Millisecond,
		PrevAnswers:   42,
		PatternRels: []*engine.Relation{
			{Vars: []string{"x", "y"}, Rows: [][]rdf.ID{{1, 2}, {3, 4}}},
			{Vars: []string{"x", "z"}, Rows: [][]rdf.ID{{1, 9}}},
		},
		Answers: &engine.Relation{Vars: []string{"x", "y", "z"}, Rows: [][]rdf.ID{{1, 2, 9}}},
	}
}

func sampleRecord() *Record {
	return &Record{
		ID:          [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Fingerprint: "bgp-2/star",
		Created:     1111,
		LastUsed:    2222,
		Segments:    3,
		LatencyNS:   int64(time.Second),
		Restarted:   true,
		StepAnswers: []int{0, 4, 42},
		Checkpoint:  *sampleCheckpoint(),
	}
}

// createTest registers a fresh lineage paused at the sample checkpoint.
func createTest(t *testing.T, m *Manager, latency time.Duration) *Handle {
	t.Helper()
	id, err := NewID()
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Create(&Record{
		ID:          id,
		Fingerprint: "fp",
		LatencyNS:   int64(latency),
		Checkpoint:  *sampleCheckpoint(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRecord()
	got, err := DecodeRecord(EncodeRecord(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Fingerprint != want.Fingerprint ||
		got.Created != want.Created || got.LastUsed != want.LastUsed ||
		got.Segments != want.Segments || got.LatencyNS != want.LatencyNS ||
		got.Restarted != want.Restarted {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got, want)
	}
	if len(got.StepAnswers) != 3 || got.StepAnswers[2] != 42 {
		t.Fatalf("step answers %v, want %v", got.StepAnswers, want.StepAnswers)
	}
	gcp, wcp := got.Checkpoint, want.Checkpoint
	if gcp.Query != wcp.Query || gcp.Strategy != wcp.Strategy ||
		gcp.FailurePolicy != wcp.FailurePolicy || gcp.Epoch != wcp.Epoch ||
		gcp.LayoutSig != wcp.LayoutSig || gcp.StepsDone != wcp.StepsDone ||
		gcp.RowsLoadedCum != wcp.RowsLoadedCum || gcp.ElapsedCum != wcp.ElapsedCum ||
		gcp.PrevAnswers != wcp.PrevAnswers {
		t.Fatalf("checkpoint mismatch:\n got %+v\nwant %+v", gcp, wcp)
	}
	if len(gcp.LoadedKeys) != len(wcp.LoadedKeys) || gcp.LoadedKeys[1] != wcp.LoadedKeys[1] {
		t.Fatalf("loaded keys %v, want %v", gcp.LoadedKeys, wcp.LoadedKeys)
	}
	if len(gcp.MissingKeys) != 1 || gcp.MissingKeys[0] != wcp.MissingKeys[0] {
		t.Fatalf("missing keys %v, want %v", gcp.MissingKeys, wcp.MissingKeys)
	}
	if len(gcp.PatternRels) != 2 || gcp.PatternRels[0].Card() != 2 || gcp.PatternRels[1].Rows[0][1] != 9 {
		t.Fatalf("pattern relations did not round-trip: %+v", gcp.PatternRels)
	}
	if gcp.Answers == nil || gcp.Answers.Card() != 1 || gcp.Answers.Rows[0][2] != 9 {
		t.Fatalf("answers did not round-trip: %+v", gcp.Answers)
	}
}

func TestRecordRejectsCorruption(t *testing.T) {
	good := EncodeRecord(sampleRecord())
	// Every single-byte flip must be rejected (magic, version, length,
	// or checksum catches it).
	for i := 0; i < len(good); i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x41
		if _, err := DecodeRecord(bad); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
	// Truncations too.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeRecord(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

// TestRecordRefusesOlderVersions: records of earlier formats (v2 had no
// lineage totals, v3 carried the checkpoint's evaluation-mode flag) are
// refused rather than mis-decoded, so their lineages restart.
func TestRecordRefusesOlderVersions(t *testing.T) {
	for _, v := range []byte{2, 3} {
		old := EncodeRecord(sampleRecord())
		old[len(recordMagic)] = v
		if _, err := DecodeRecord(old); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("v%d record: err %v, want ErrBadRecord", v, err)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	id := [16]byte{0xaa, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xff}
	for _, step := range []int{1, 2, 127, 128, 65535, maxTokenStep} {
		tok := Token(id, step)
		gid, gstep, err := ParseToken(tok)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if gid != id || gstep != step {
			t.Fatalf("step %d: got (%x, %d)", step, gid, gstep)
		}
	}
}

func TestTokenRejectsGarbage(t *testing.T) {
	good := Token([16]byte{1}, 3)
	bad := []string{
		"", "pqc", "pqc.", "qpc." + good[4:], good + "x", good[:len(good)-1],
		"pqc.!!!not-base64!!!", Token([16]byte{1}, 0),
	}
	for _, tok := range bad {
		if _, _, err := ParseToken(tok); err == nil {
			t.Fatalf("accepted %q", tok)
		}
	}
	// Flip every character of the payload: the CRC must catch it (or
	// base64 rejects the alphabet change).
	for i := len(tokenPrefix); i < len(good); i++ {
		b := []byte(good)
		if b[i] == 'A' {
			b[i] = 'B'
		} else {
			b[i] = 'A'
		}
		if _, _, err := ParseToken(string(b)); err == nil {
			t.Fatalf("accepted corrupted token (pos %d)", i)
		}
	}
}

// managerAt builds a Manager over fs with a controllable clock.
func managerAt(fs *dfs.FS, now *time.Time) *Manager {
	return New(Config{
		FS:        fs,
		TTL:       10 * time.Minute,
		IdleEvict: time.Minute,
		Now:       func() time.Time { return *now },
	})
}

func TestManagerLifecycle(t *testing.T) {
	obs.VerifyNoLeaks(t)
	now := time.Unix(1000, 0)
	fs := dfs.New(dfs.Config{})
	m := managerAt(fs, &now)

	h := createTest(t, m, 50*time.Millisecond)
	tok := h.Token(2)

	// Exclusive checkout.
	h2, err := m.Checkout(tok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkout(tok); !errors.Is(err, ErrBusy) {
		t.Fatalf("double checkout: %v", err)
	}
	// A token for an earlier step of the same lineage still resumes.
	h2.Abort()
	h2, err = m.Checkout(h.Token(1))
	if err != nil {
		t.Fatalf("earlier-step token: %v", err)
	}
	// A forged future-step token does not.
	h2.Abort()
	if _, err := m.Checkout(h.Token(5)); !errors.Is(err, ErrBadToken) {
		t.Fatalf("future-step token: %v", err)
	}

	// Pause accumulates segments and latency; Complete retires and
	// reports the lineage totals exactly once.
	h2, _ = m.Checkout(tok)
	cp2 := sampleCheckpoint()
	cp2.StepsDone = 3
	h2.Pause(cp2, 30*time.Millisecond, false, nil)
	h3, err := m.Checkout(h2.Token(3))
	if err != nil {
		t.Fatal(err)
	}
	rec := h3.Complete(20 * time.Millisecond)
	if rec.Segments != 3 || rec.LatencyNS != int64(100*time.Millisecond) {
		t.Fatalf("lineage totals %d segments / %v", rec.Segments, time.Duration(rec.LatencyNS))
	}
	if _, err := m.Checkout(tok); !errors.Is(err, ErrNotFound) {
		t.Fatalf("completed cursor still resumable: %v", err)
	}
	if st := m.Stats(); st.Active != 0 {
		t.Fatalf("stats after complete: %+v", st)
	}
}

func TestManagerHibernateAndRestart(t *testing.T) {
	// Hibernation crosses managers and a simulated restart — exactly the
	// kind of path that can strand a goroutine, so verify none leak.
	obs.VerifyNoLeaks(t)
	now := time.Unix(1000, 0)
	fs := dfs.New(dfs.Config{})
	m := managerAt(fs, &now)
	h := createTest(t, m, time.Millisecond)
	tok := h.Token(2)

	// Idle past IdleEvict: the sweep hibernates the record to the dfs.
	now = now.Add(2 * time.Minute)
	hib, exp := m.Sweep()
	if hib != 1 || exp != 0 {
		t.Fatalf("sweep: hibernated %d, expired %d", hib, exp)
	}
	if st := m.Stats(); st.Hibernated != 1 || st.InMemory != 0 {
		t.Fatalf("stats after sweep: %+v", st)
	}
	// Checkout reloads it transparently.
	h2, err := m.Checkout(tok)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Checkpoint().StepsDone != 2 {
		t.Fatalf("rehydrated checkpoint: %+v", h2.Checkpoint())
	}
	h2.Abort()

	// Full process restart: a fresh manager over the same dfs finds the
	// record by token alone.
	if _, err := m.HibernateAll(); err != nil {
		t.Fatal(err)
	}
	m2 := managerAt(fs, &now)
	h3, err := m2.Checkout(tok)
	if err != nil {
		t.Fatalf("post-restart checkout: %v", err)
	}
	if h3.Checkpoint().Query != sampleCheckpoint().Query {
		t.Fatal("post-restart checkpoint lost the query")
	}
	if h3.Lease() != nil {
		t.Fatal("leases must not survive a restart")
	}
}

func TestManagerTTLExpiry(t *testing.T) {
	obs.VerifyNoLeaks(t)
	now := time.Unix(1000, 0)
	fs := dfs.New(dfs.Config{})
	m := managerAt(fs, &now)
	h := createTest(t, m, time.Millisecond)
	tok := h.Token(2)
	now = now.Add(11 * time.Minute)
	if _, exp := m.Sweep(); exp != 1 {
		t.Fatalf("expired %d cursors, want 1", exp)
	}
	if _, err := m.Checkout(tok); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired cursor resumable: %v", err)
	}

	// TTL is also enforced on a hibernated record found after restart.
	h = createTest(t, m, time.Millisecond)
	tok = h.Token(2)
	if _, err := m.HibernateAll(); err != nil {
		t.Fatal(err)
	}
	now = now.Add(11 * time.Minute)
	m2 := managerAt(fs, &now)
	if _, err := m2.Checkout(tok); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale hibernated cursor resumable: %v", err)
	}
}

func TestManagerOverflow(t *testing.T) {
	now := time.Unix(1000, 0)
	// No FS: the table rejects overflow.
	m := New(Config{MaxCursors: 2, Now: func() time.Time { return now }})
	createTest(t, m, 0)
	createTest(t, m, 0)
	id, _ := NewID()
	_, err := m.Create(&Record{ID: id, Checkpoint: *sampleCheckpoint()}, nil)
	if !errors.Is(err, ErrTooMany) {
		t.Fatalf("overflow: %v", err)
	}

	// With an FS, overflow hibernates the LRU cursor instead.
	fs := dfs.New(dfs.Config{})
	m = New(Config{FS: fs, MaxCursors: 2, Now: func() time.Time { return now }})
	h0 := createTest(t, m, 0)
	now = now.Add(time.Second)
	createTest(t, m, 0)
	now = now.Add(time.Second)
	createTest(t, m, 0)
	if st := m.Stats(); st.Hibernated != 1 || st.Active != 3 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	// The evicted cursor is still resumable from disk.
	if _, err := m.Checkout(h0.Token(2)); err != nil {
		t.Fatalf("evicted cursor: %v", err)
	}
}
