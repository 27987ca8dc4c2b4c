// Command pingquery answers a SPARQL BGP query over a store produced by
// pingload, either progressively (default) — printing per-slice progress
// the way PING's PQA delivers it — or exactly in one shot with -exact.
//
// Usage:
//
//	pingquery -store ./uniprot-store -query 'SELECT * WHERE { ?x <...p> ?y }'
//	pingquery -store ./uniprot-store -file q.rq -exact
//	pingquery -store ./uniprot-store -file q.rq -strategy largest
//	pingquery -store ./uniprot-store -file q.rq -failure-policy degrade -timeout 30s
//	pingquery -store ./uniprot-store -file q.rq -metrics-addr :0 -trace-out trace.json
//	pingquery -store ./uniprot-store -file q.rq -explain          # static plan
//	pingquery -store ./uniprot-store -file q.rq -analyze -json    # plan + actuals
//	pingquery -store ./uniprot-store -file q.rq -budget-steps 2 -cursor-out q.cur
//	pingquery -store ./uniprot-store -resume q.cur -cursor-out q.cur   # next segment
//	pingquery -server http://localhost:8080 -file q.rq -budget-steps 2 # remote, traced
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ping/internal/cursor"
	"ping/internal/dataflow"
	"ping/internal/dfs"
	"ping/internal/engine"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/ping"
	"ping/internal/sparql"
	"ping/internal/workload"
)

func main() {
	var (
		store    = flag.String("store", "", "store directory written by pingload (required)")
		queryStr = flag.String("query", "", "SPARQL query text")
		file     = flag.String("file", "", "file containing the SPARQL query")
		exact    = flag.Bool("exact", false, "exact query answering (one shot) instead of progressive")
		strategy = flag.String("strategy", "level", "slice order: level, product, largest, smallest")
		workers  = flag.Int("workers", 4, "dataflow workers")
		maxRows  = flag.Int("rows", 20, "print at most this many result rows (0 = all)")
		useBloom = flag.Bool("bloom", false, "use sub-partition Bloom filters for level pruning (store must be built with -blooms)")
		explain  = flag.Bool("explain", false, "print the query plan (slice schedule, join order, predicted rows) and exit without running")
		analyze  = flag.Bool("analyze", false, "run the query and print the plan annotated with actual rows, cache hits and timings")
		planJSON = flag.Bool("json", false, "with -explain/-analyze, emit the plan as JSON instead of text")
		policy   = flag.String("failure-policy", "failfast", "storage failure handling: failfast (abort on unreadable sub-partition) or degrade (skip it; answers stay a sound subset)")
		timeout  = flag.Duration("timeout", 0, "overall query deadline, e.g. 30s (0 = none)")

		budgetSteps    = flag.Int("budget-steps", 0, "run at most this many PQA steps, then pause with a cursor (0 = no bound)")
		budgetRows     = flag.Int64("budget-rows", 0, "load at most this many predicted rows — the run keeps the longest schedule prefix that fits (0 = no bound)")
		budgetDeadline = flag.Duration("budget-deadline", 0, "pause at the first step boundary past this elapsed time (0 = no bound)")
		cursorOut      = flag.String("cursor-out", "", "write the resumable cursor record here when the run pauses")
		resume         = flag.String("resume", "", "resume from a cursor record written by -cursor-out (the query text comes from the cursor; -query/-file may be omitted)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and pprof on this address while the query runs (e.g. :9090 or :0)")
		metricsHold = flag.Duration("metrics-hold", 0, "keep the metrics endpoint up this long after the query finishes (for scraping short queries)")
		traceOut    = flag.String("trace-out", "", "write the query's span tree as indented JSON to this file")
		server      = flag.String("server", "", "stream the query against a running pingd at this base URL instead of a local store (propagates a traceparent)")
	)
	flag.Parse()
	if *server != "" {
		text := *queryStr
		if *file != "" {
			data, err := os.ReadFile(*file)
			if err != nil {
				fatal(err)
			}
			text = string(data)
		}
		if text == "" {
			flag.Usage()
			os.Exit(2)
		}
		budget := ping.Budget{MaxSteps: *budgetSteps, MaxLoadedRows: *budgetRows, Deadline: *budgetDeadline}
		if err := runRemote(*server, text, budget, *timeout, *maxRows > 0, *traceOut); err != nil {
			fatal(err)
		}
		return
	}
	if *store == "" || (*queryStr == "" && *file == "" && *resume == "") {
		flag.Usage()
		os.Exit(2)
	}

	// A resumed run carries its own query text, lineage bookkeeping, and
	// strategy in the cursor record.
	var rec *cursor.Record
	if *resume != "" {
		data, err := os.ReadFile(*resume)
		if err != nil {
			fatal(err)
		}
		if rec, err = cursor.DecodeRecord(data); err != nil {
			fatal(err)
		}
	}

	text := *queryStr
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		text = string(data)
	}
	if text == "" && rec != nil {
		text = rec.Checkpoint.Query
	}
	q, err := sparql.Parse(text)
	if err != nil {
		fatal(err)
	}

	fs, err := dfs.OpenOnDisk(*store)
	if err != nil {
		fatal(err)
	}
	lay, err := hpart.Load(fs, nil)
	if err != nil {
		fatal(err)
	}

	opts := ping.Options{Context: dataflow.NewContext(*workers), UseBloomPruning: *useBloom}
	if opts.Strategy, err = ping.ParseSliceStrategy(*strategy); err != nil {
		fatal(err)
	}
	if opts.FailurePolicy, err = ping.ParseFailurePolicy(*policy); err != nil {
		fatal(err)
	}
	proc := ping.NewProcessor(lay, opts)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *metricsAddr != "" {
		_, lnAddr, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", lnAddr)
		if *metricsHold > 0 {
			defer func() {
				fmt.Fprintf(os.Stderr, "holding metrics endpoint for %v\n", *metricsHold)
				time.Sleep(*metricsHold)
			}()
		}
	}

	var root *obs.Span
	if *traceOut != "" {
		ctx, root = obs.NewTrace(ctx, "pingquery")
		root.SetAttr("store", *store)
		defer func() {
			root.End()
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			err = root.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
		}()
	}

	if *explain || *analyze {
		var plan *ping.Plan
		if *analyze {
			plan, _, err = proc.Analyze(ctx, q)
		} else {
			plan, err = proc.Explain(q)
		}
		if err != nil {
			fatal(err)
		}
		plan.Fingerprint = workload.Fingerprint(q)
		if *planJSON {
			err = plan.WriteJSON(os.Stdout)
		} else {
			err = plan.WriteText(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("query (%s, %d patterns) over %d levels:\n%s\n\n",
		sparql.Classify(q), len(q.Patterns)+len(q.Paths), lay.NumLevels, q)

	if *exact {
		start := time.Now()
		res, err := proc.EQAFull(ctx, q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("EQA: %d answers in %v (%d rows loaded, %d joins)\n\n",
			res.Answers.Card(), time.Since(start), res.Stats.InputRows, res.Stats.Joins)
		printRelation(lay, res.Answers, *maxRows)
		if !res.Exact {
			printDegradedBanner(res.MissingSubParts)
		}
		return
	}

	budget := ping.Budget{
		MaxSteps:      *budgetSteps,
		MaxLoadedRows: *budgetRows,
		Deadline:      *budgetDeadline,
	}
	var last ping.StepResult
	var stepAnswers []int
	fn := func(st ping.StepResult, _ *ping.Checkpoint) bool {
		last = st
		stepAnswers = append(stepAnswers, st.Answers.Card())
		degraded := ""
		if st.Degraded {
			degraded = fmt.Sprintf(" [degraded: %d sub-partitions missing]", len(st.MissingSubParts))
		}
		fmt.Printf("slice %d (levels up to %d): +%d sub-partitions, %d rows loaded, %d answers (+%d) in %v%s\n",
			st.Step, st.MaxLevel, len(st.NewSubParts), st.RowsLoadedCum,
			st.Answers.Card(), st.NewAnswers, st.ElapsedCum, degraded)
		if st.NewAnswers > 0 {
			printRelation(lay, st.Answers, *maxRows)
		}
		return true
	}

	start := time.Now()
	var st *ping.RunStatus
	if rec != nil {
		fmt.Printf("resuming after step %d of a prior run (%d segments so far)\n\n",
			rec.Checkpoint.StepsDone, rec.Segments)
		st, err = proc.PQAResumeRun(ctx, nil, &rec.Checkpoint, budget, fn)
		if errors.Is(err, ping.ErrSnapshotMismatch) {
			fatal(fmt.Errorf("%v\nthe store changed since the cursor was written; rerun without -resume", err))
		}
	} else {
		st, err = proc.PQARunOn(ctx, nil, q, budget, fn)
	}
	if err != nil {
		fatal(err)
	}
	if last.Degraded {
		printDegradedBanner(last.MissingSubParts)
	}
	if st.Done {
		if rec != nil {
			fmt.Printf("lineage complete after %d segments\n", rec.Segments+1)
		}
		return
	}

	// Paused under budget: persist the cursor so a later invocation can
	// pick up where this one stopped.
	if rec == nil {
		id, err := cursor.NewID()
		if err != nil {
			fatal(err)
		}
		rec = &cursor.Record{ID: id, Fingerprint: workload.Fingerprint(q)}
	}
	rec.Checkpoint = *st.Checkpoint
	rec.Segments++
	rec.LatencyNS += int64(time.Since(start))
	rec.StepAnswers = append(rec.StepAnswers, stepAnswers...)
	fmt.Printf("paused after step %d/%d (%s): %d answers so far — a sound subset of the exact result\n",
		st.StepsDone, st.PlannedSteps, st.Reason, st.Checkpoint.PrevAnswers)
	if *cursorOut == "" {
		fmt.Println("no -cursor-out given; the remaining steps cannot be resumed")
		return
	}
	if err := os.WriteFile(*cursorOut, cursor.EncodeRecord(rec), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("cursor written to %s\nresume with: pingquery -store %s -resume %s\n",
		*cursorOut, *store, *cursorOut)
}

// printDegradedBanner warns that the answer is a sound subset, not the
// exact result, and lists what could not be read.
func printDegradedBanner(missing []hpart.SubPartKey) {
	fmt.Println("*** DEGRADED ANSWER ***")
	fmt.Println("some sub-partitions were unreadable after all retries; the answers above")
	fmt.Println("are a sound subset of the exact result (Lemma 4.4), not the exact result.")
	fmt.Printf("missing sub-partitions (%d):", len(missing))
	for _, k := range missing {
		fmt.Printf(" %s", k)
	}
	fmt.Println()
}

func printRelation(lay *hpart.Layout, rel *engine.Relation, maxRows int) {
	fmt.Printf("  ?%s\n", strings.Join(rel.Vars, "\t?"))
	n := rel.Card()
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	dv := lay.DictView()
	for _, row := range rel.Rows[:n] {
		parts := make([]string, len(row))
		for i, id := range row {
			parts[i] = dv.TermString(id)
		}
		fmt.Printf("  %s\n", strings.Join(parts, "\t"))
	}
	if n < rel.Card() {
		fmt.Printf("  ... (%d more)\n", rel.Card()-n)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pingquery: %v\n", err)
	os.Exit(1)
}
