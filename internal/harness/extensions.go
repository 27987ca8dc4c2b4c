package harness

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"ping/internal/baseline/tpf"
	"ping/internal/hpart"
	"ping/internal/ping"
	"ping/internal/rdf"
	"ping/internal/sparql"
)

// Extensions measures the three §6.2 future-work features this repository
// implements beyond the paper: incremental partition maintenance,
// Bloom-filter level pruning, and progressive property-path (recursive)
// queries.
func (s *Suite) Extensions() (*Report, error) {
	var b strings.Builder

	if err := s.extIncremental(&b); err != nil {
		return nil, err
	}
	if err := s.extBloomPruning(&b); err != nil {
		return nil, err
	}
	if err := s.extPaths(&b); err != nil {
		return nil, err
	}
	if err := s.extTPF(&b); err != nil {
		return nil, err
	}

	return &Report{
		ID:    "extensions",
		Title: "§6.2 future-work features: incremental updates, Bloom pruning, recursive paths",
		PaperClaim: "(Beyond the paper.) §6.1/6.2 call for an incremental update algorithm (hard when new " +
			"levels appear), Bloom filters to identify levels with relevant answers, and navigational " +
			"queries with recursion evaluated across the impacted levels.",
		Body: b.String(),
	}, nil
}

// extIncremental compares incremental maintenance against full
// repartitioning for growing update batches.
func (s *Suite) extIncremental(b *strings.Builder) error {
	bd, err := s.Dataset("uniprot")
	if err != nil {
		return err
	}
	g := bd.Data.Graph
	schema := bd.Data.Schema
	fmt.Fprintf(b, "Incremental maintenance vs full repartition (uniprot, %d triples):\n", g.Len())
	w := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "update kind\tbatch\tincremental\tfull repartition\tspeedup")

	// Benign updates: new subjects whose CS already exists in the
	// hierarchy ({occursIn, hasKeyword} = the level-1 protein CS). The
	// paper calls this case trivial; no level moves.
	benign := func(i int) []rdf.Triple {
		s := g.Dict.EncodeIRI(fmt.Sprintf("http://upd.example.org/s%d", i))
		return []rdf.Triple{
			{S: s, P: g.Dict.EncodeIRI(schema.PropertyIRI("occursIn")),
				O: g.Dict.EncodeIRI(fmt.Sprintf("http://upd.example.org/org%d", i%40))},
			{S: s, P: g.Dict.EncodeIRI(schema.PropertyIRI("hasKeyword")),
				O: g.Dict.EncodeIRI(fmt.Sprintf("http://upd.example.org/kw%d", i%80))},
		}
	}
	// Reshaping update: one subject whose CS {occursIn} is a strict
	// subset of every protein CS — all existing levels renumber and every
	// protein's rows move (the paper's "complicated" case).
	reshape := func(i int) []rdf.Triple {
		return []rdf.Triple{{
			S: g.Dict.EncodeIRI(fmt.Sprintf("http://upd.example.org/r%d", i)),
			P: g.Dict.EncodeIRI(schema.PropertyIRI("occursIn")),
			O: g.Dict.EncodeIRI("http://upd.example.org/org0"),
		}}
	}

	run := func(kind string, batch int, mk func(int) []rdf.Triple) error {
		lay, err := hpart.Partition(g, hpart.Options{})
		if err != nil {
			return err
		}
		m, err := hpart.NewStoreMaintainer(hpart.NewStore(lay))
		if err != nil {
			return err
		}
		var add []rdf.Triple
		for i := 0; i < batch; i++ {
			add = append(add, mk(i)...)
		}
		t0 := time.Now()
		if err := m.AddTriples(add); err != nil {
			return err
		}
		incr := time.Since(t0)

		g2 := g.Clone()
		for _, t := range add {
			g2.AddID(t)
		}
		g2.Dedup()
		t0 = time.Now()
		if _, err := hpart.Partition(g2, hpart.Options{}); err != nil {
			return err
		}
		full := time.Since(t0)
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%.1fx\n", kind, len(add), fmtDuration(incr),
			fmtDuration(full), float64(full)/float64(incr))
		return nil
	}
	for _, batch := range []int{10, 100, 1000} {
		if err := run("existing CS (trivial)", batch, benign); err != nil {
			return err
		}
	}
	if err := run("new subset CS (levels renumber)", 1, reshape); err != nil {
		return err
	}
	w.Flush()
	b.WriteByte('\n')
	return nil
}

// extBloomPruning measures the data-access effect of sub-partition Bloom
// filters on the constant-rich Fig. 9 workload.
func (s *Suite) extBloomPruning(b *strings.Builder) error {
	bd, err := s.Dataset("shop")
	if err != nil {
		return err
	}
	if !bd.Layout.HasBlooms() {
		if err := bd.Layout.BuildBlooms(); err != nil {
			return err
		}
	}
	bins := LevelBinnedQueries(bd.Layout, bd.Data, "User", 2, s.PerBucket, s.Seed+200)
	plain := s.Processor(bd, ping.Options{})
	pruned := s.Processor(bd, ping.Options{UseBloomPruning: true})

	var rowsPlain, rowsPruned int64
	var timePlain, timePruned time.Duration
	queries := 0
	for _, qs := range bins {
		for _, q := range qs {
			t0 := time.Now()
			_, st1, err := plain.EQA(q)
			if err != nil {
				return err
			}
			timePlain += time.Since(t0)
			t0 = time.Now()
			_, st2, err := pruned.EQA(q)
			if err != nil {
				return err
			}
			timePruned += time.Since(t0)
			rowsPlain += st1.InputRows
			rowsPruned += st2.InputRows
			queries++
		}
	}
	fmt.Fprintf(b, "Bloom-filter level pruning (shop, %d constant-rich queries):\n", queries)
	w := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "configuration\tavg rows loaded\tavg time")
	if queries > 0 {
		fmt.Fprintf(w, "SI/OI indexes only\t%d\t%s\n",
			rowsPlain/int64(queries), fmtDuration(timePlain/time.Duration(queries)))
		fmt.Fprintf(w, "+ sub-partition blooms\t%d\t%s\n",
			rowsPruned/int64(queries), fmtDuration(timePruned/time.Duration(queries)))
	}
	w.Flush()
	b.WriteByte('\n')
	return nil
}

// extPaths runs a recursive reachability query progressively on the
// Social dataset (knows+ chains).
func (s *Suite) extPaths(b *strings.Builder) error {
	bd, err := s.Dataset("social")
	if err != nil {
		return err
	}
	knows := bd.Data.Schema.PropertyIRI("knows")
	// Start from a person that knows someone.
	var start string
	knowsID := bd.Data.Graph.Dict.LookupIRI(knows)
	for _, t := range bd.Data.Graph.Triples {
		if t.P == knowsID {
			start = bd.Data.Graph.Dict.Term(t.S).Value
			break
		}
	}
	if start == "" {
		return fmt.Errorf("harness: no knows edges in social dataset")
	}
	q := sparql.MustParse(fmt.Sprintf(`SELECT * WHERE { <%s> <%s>+ ?y }`, start, knows))
	proc := s.Processor(bd, ping.Options{})
	res, err := proc.PQA(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "Progressive recursive path (social): <...%s> knows+ ?y\n", shortIRI(start))
	w := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "slice\tmax level\treachable\trows loaded\ttime(cum)")
	for _, st := range res.Steps {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\n",
			st.Step, st.MaxLevel, st.Answers.Card(), st.RowsLoadedCum, fmtDuration(st.ElapsedCum))
	}
	w.Flush()
	fmt.Fprintf(b, "exact closure: %d persons reachable\n", res.Final.Card())
	return nil
}

// extTPF contrasts PING's serverless EQA with a restricted SPARQL server
// (Triple Pattern Fragments) driven by a smart client — the comparison
// §6.2 proposes. A simulated per-request latency models the HTTP round
// trip; the interesting columns are the request count and the triples
// shipped to the client.
func (s *Suite) extTPF(b *strings.Builder) error {
	bd, err := s.Dataset("shop")
	if err != nil {
		return err
	}
	wl := s.Workload(bd)
	queries := append(append([]*sparql.Query(nil), wl.Star...), wl.Chain...)

	const latency = 200 * time.Microsecond
	srv := tpf.NewServer(bd.Data.Graph, tpf.PageSize)
	srv.Latency = latency
	client := tpf.NewClient(srv)
	proc := s.Processor(bd, ping.Options{})

	var pingTime, tpfTime time.Duration
	var pingRows, tpfRows, tpfRequests int64
	ran := 0
	for _, q := range queries {
		t0 := time.Now()
		relP, stP, err := proc.EQA(q)
		if err != nil {
			return err
		}
		pingTime += time.Since(t0)
		pingRows += stP.InputRows

		t0 = time.Now()
		relT, stT, err := client.Query(q)
		if err != nil {
			return err
		}
		tpfTime += time.Since(t0)
		tpfRows += stT.InputRows
		tpfRequests += int64(stT.Joins) // request count (see tpf docs)
		if relT.Distinct().Card() != relP.Card() {
			return fmt.Errorf("harness: TPF answers diverge on %s", q)
		}
		ran++
	}
	fmt.Fprintf(b, "\nRestricted server (TPF + smart client, %v/request) vs PING (shop, %d queries):\n",
		latency, ran)
	w := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tavg time\tavg triples shipped/loaded\tavg server requests")
	if ran > 0 {
		fmt.Fprintf(w, "TPF smart client\t%s\t%d\t%d\n",
			fmtDuration(tpfTime/time.Duration(ran)), tpfRows/int64(ran), tpfRequests/int64(ran))
		fmt.Fprintf(w, "PING EQA\t%s\t%d\t0 (no client-side joins)\n",
			fmtDuration(pingTime/time.Duration(ran)), pingRows/int64(ran))
	}
	w.Flush()
	return nil
}

func shortIRI(iri string) string {
	if i := strings.LastIndexByte(iri, '/'); i >= 0 {
		return iri[i+1:]
	}
	return iri
}
