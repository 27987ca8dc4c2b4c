package ping

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/faults"
	"ping/internal/hpart"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// stringAnswerSet decodes a relation's rows to term strings through the
// layout's dictionary view — the same boundary NDJSON emission crosses —
// so comparisons in this file exercise the full ID→string round trip,
// not just ID equality.
func stringAnswerSet(t *testing.T, rel *engine.Relation, dv *rdf.DictView) map[string]bool {
	t.Helper()
	set := make(map[string]bool, rel.Card())
	for _, row := range rel.Rows {
		key := ""
		for _, id := range row {
			if int(id) >= dv.Len() {
				t.Fatalf("answer ID %d beyond dictionary snapshot of %d terms", id, dv.Len())
			}
			key += dv.TermString(id) + "\x00"
		}
		set[key] = true
	}
	return set
}

// TestDictRoundTripMatchesOracleAllStrategies is the dictionary-encoding
// property test: under every slice strategy, a PQA over compressed
// (delta-varint) resident blocks, decoded back to strings at the
// emission boundary, must produce exactly the string answer set of the
// naive oracle on the raw graph. Runs under -race via the standard
// suite.
func TestDictRoundTripMatchesOracleAllStrategies(t *testing.T) {
	strategies := []SliceStrategy{LevelCumulative, ProductOrder, LargestFirst, SmallestFirst}
	for seed := int64(0); seed < 3; seed++ {
		g := nestedGraph(seed, 60, 5)
		for _, strat := range strategies {
			// A fresh layout per strategy: the resident cache is layout
			// state.
			layOn := mustPartition(t, g)
			on := NewProcessor(layOn, Options{Strategy: strat})
			for _, qs := range testQueries {
				q := sparql.MustParse(qs)
				oracle := stringAnswerSet(t, engine.Naive(g, q).Distinct(), layOn.DictView())

				resOn, err := on.PQA(q)
				if err != nil {
					t.Fatalf("seed %d strat %v %q: dict run: %v", seed, strat, qs, err)
				}
				gotOn := stringAnswerSet(t, resOn.Final, layOn.DictView())
				if len(gotOn) != len(oracle) || !subset(gotOn, oracle) {
					t.Fatalf("seed %d strat %v %q: dict-encoded answers (%d) differ from oracle (%d)",
						seed, strat, qs, len(gotOn), len(oracle))
				}
			}
			// The dict-on run's cache must actually hold compressed
			// blocks (strictly fewer bytes than the raw equivalent
			// except for degenerate tiny caches).
			_, bytes, rawBytes := layOn.SubPartCacheStats()
			if bytes > rawBytes {
				t.Fatalf("seed %d strat %v: packed cache (%d B) larger than raw equivalent (%d B)",
					seed, strat, bytes, rawBytes)
			}
		}
	}
}

// TestDictRoundTripUnderFaults: with seeded fault plans and Degrade
// policy, string-decoded answers from compressed resident blocks must
// stay a sound subset of the oracle under every strategy (Lemma 4.4
// composed with the dictionary round trip).
func TestDictRoundTripUnderFaults(t *testing.T) {
	strategies := []SliceStrategy{LevelCumulative, ProductOrder, LargestFirst, SmallestFirst}
	for seed := int64(0); seed < 3; seed++ {
		g := nestedGraph(seed, 50, 5)
		fs := dfs.New(chaosConfig(1))
		lay, err := hpart.Partition(g, hpart.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 131))
		in := faults.New(randomPlan(rng, 4))
		in.Attach(fs)
		for _, strat := range strategies {
			proc := NewProcessor(lay, Options{Strategy: strat, FailurePolicy: Degrade})
			for _, qs := range testQueries {
				q := sparql.MustParse(qs)
				oracle := stringAnswerSet(t, engine.Naive(g, q).Distinct(), lay.DictView())
				res, err := proc.PQA(q)
				if err != nil {
					t.Fatalf("seed %d strat %v %q: %v", seed, strat, qs, err)
				}
				got := stringAnswerSet(t, res.Final, lay.DictView())
				if !subset(got, oracle) {
					t.Fatalf("seed %d strat %v %q: degraded dict-encoded answers are not a subset of the oracle",
						seed, strat, qs)
				}
				if res.Exact && len(got) != len(oracle) {
					t.Fatalf("seed %d strat %v %q: exact run has %d answers, oracle %d",
						seed, strat, qs, len(got), len(oracle))
				}
			}
		}
	}
}

// prefixedGraph builds the same random structure as nestedGraph but with
// caller-chosen term prefixes. Two graphs built with the same seed and
// different prefixes have identical triple structure over identical IDs
// (terms are interned in the same order) — and therefore identical
// layout signatures — while their dictionaries hold different strings.
func prefixedGraph(seed int64, subjects, depth int, subj, prop string) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph()
	for s := 0; s < subjects; s++ {
		sn := rdf.NewIRI(fmt.Sprintf("%s%d", subj, s))
		d := 1 + rng.Intn(depth)
		for i := 0; i < d; i++ {
			obj := rdf.NewIRI(fmt.Sprintf("%s%d", subj, rng.Intn(subjects)))
			g.Add(sn, rdf.NewIRI(fmt.Sprintf("%s%d", prop, i)), obj)
		}
	}
	g.Dedup()
	return g
}

// TestResumeRefusesForeignDictionary: two same-shape datasets produce
// layouts with EQUAL layout signatures (the signature covers the
// sub-partition inventory, which is ID-level) but DIFFERENT
// dictionaries. A checkpoint paused on one must refuse to resume on the
// other with ErrSnapshotMismatch — resuming would decode the first
// dataset's IDs through the second's terms and silently emit wrong
// strings.
func TestResumeRefusesForeignDictionary(t *testing.T) {
	gA := prefixedGraph(7, 40, 4, "s", "p")
	gB := prefixedGraph(7, 40, 4, "x", "q")
	layA := mustPartition(t, gA)
	layB := mustPartition(t, gB)
	if layA.Signature() != layB.Signature() {
		t.Fatalf("same-shape layouts have different signatures (%x vs %x) — test premise broken",
			layA.Signature(), layB.Signature())
	}
	if layA.DictView().Sig() == layB.DictView().Sig() {
		t.Fatal("different dictionaries share a signature")
	}

	proc := NewProcessor(layA, Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)
	st, err := proc.PQARunOn(context.Background(), nil, q, Budget{MaxSteps: 1},
		func(StepResult, *Checkpoint) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Skip("schedule has a single step")
	}
	if st.Checkpoint.DictLen == 0 || st.Checkpoint.DictSig == 0 {
		t.Fatalf("checkpoint carries no dictionary identity: %+v", st.Checkpoint)
	}
	_, err = proc.PQAResumeRun(context.Background(), layB, st.Checkpoint, Budget{},
		func(StepResult, *Checkpoint) bool { return true })
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("resume on foreign dictionary: err = %v, want ErrSnapshotMismatch", err)
	}
	// Resuming on the original layout still works and completes exactly.
	rst, err := proc.PQAResumeRun(context.Background(), layA, st.Checkpoint, Budget{},
		func(StepResult, *Checkpoint) bool { return true })
	if err != nil || !rst.Done {
		t.Fatalf("resume on own layout: %v (done=%v)", err, rst != nil && rst.Done)
	}
}

// TestResumeSurvivesBenignDictGrowth: the dictionary is append-only, so
// interning new terms between pause and resume (without touching the
// layout) extends the checkpointed prefix. Resume must validate the
// prefix signature and continue, producing the oracle answer set.
func TestResumeSurvivesBenignDictGrowth(t *testing.T) {
	g := nestedGraph(11, 50, 5)
	lay := mustPartition(t, g)
	proc := NewProcessor(lay, Options{})
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)
	oracle := answerSet(engine.Naive(g, q).Distinct())

	st, err := proc.PQARunOn(context.Background(), nil, q, Budget{MaxSteps: 1},
		func(StepResult, *Checkpoint) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Skip("schedule has a single step")
	}
	// Grow the dictionary past the checkpointed prefix (a concurrent
	// update parsing new terms does exactly this before publishing).
	for i := 0; i < 10; i++ {
		lay.Dict.EncodeIRI(fmt.Sprintf("late-arriving-term-%d", i))
	}
	var final *engine.Relation
	rst, err := proc.PQAResumeRun(context.Background(), lay, st.Checkpoint, Budget{},
		func(sr StepResult, _ *Checkpoint) bool { final = sr.Answers; return true })
	if err != nil {
		t.Fatalf("resume after benign dict growth: %v", err)
	}
	if !rst.Done {
		t.Fatalf("resume did not complete: %+v", rst)
	}
	got := answerSet(final)
	if len(got) != len(oracle) || !subset(got, oracle) {
		t.Fatalf("resumed run has %d answers, oracle %d", len(got), len(oracle))
	}
}
