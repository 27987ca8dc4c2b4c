// Command pingadvise is the offline layout advisor: it reads a recorded
// workload (a pingd snapshot, or raw wide events with -events) plus a
// partitioned store, replays the hot fingerprints, and reports which cold
// CS levels to merge and which join-reduction filters to precompute. By
// default the report is a dry run; -apply rewrites the store on disk
// (do not run against a store a live pingd is serving — use pingd's
// -advise-interval online mode for that).
//
// Usage:
//
//	pingadvise -store data/ -workload workload.ndjson
//	pingadvise -store data/ -events -workload events.ndjson -top 10 -json
//	pingadvise -store data/ -workload workload.ndjson -apply
package main

import (
	"flag"
	"fmt"
	"os"

	"ping/internal/advisor"
	"ping/internal/dfs"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/ping"
	"ping/internal/workload"
)

func main() {
	var (
		store    = flag.String("store", "", "partitioned store directory (pingload output)")
		in       = flag.String("workload", "-", "workload NDJSON snapshot file (-: stdin)")
		events   = flag.Bool("events", false, "treat the input as a wide-event stream (pingd -wide-events)")
		top      = flag.Int("top", 5, "optimize for the top N fingerprints")
		minRun   = flag.Int("min-run", 2, "minimum run of adjacent cold levels worth merging")
		maxJoins = flag.Int("max-joins", 8, "maximum join reductions to precompute")
		strategy = flag.String("strategy", "level", "slice strategy to optimize for: level, product, largest, smallest")
		apply    = flag.Bool("apply", false, "apply the recommendation to the store (default: dry-run report)")
		asJSON   = flag.Bool("json", false, "emit the report as JSON instead of text")
	)
	flag.Parse()
	if *store == "" {
		flag.Usage()
		os.Exit(2)
	}

	fs, err := dfs.OpenOnDisk(*store)
	if err != nil {
		fatal(err)
	}
	lay, err := hpart.Load(fs, nil)
	if err != nil {
		fatal(err)
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	var stats []workload.FingerprintStats
	if *events {
		prof, n, err := workload.ReplayEvents(r, workload.Options{Metrics: obs.NewRegistry()})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "replayed %d wide event(s)\n", n)
		stats = prof.Snapshot()
	} else {
		stats, err = workload.ReadNDJSON(r)
		if err != nil {
			fatal(err)
		}
	}

	cfg := advisor.Config{TopK: *top, MinMergeRun: *minRun, MaxReductions: *maxJoins}
	if cfg.Strategy, err = parseStrategy(*strategy); err != nil {
		fatal(err)
	}
	adv, err := advisor.Analyze(lay, stats, cfg)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		if err := adv.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else if err := adv.WriteText(os.Stdout); err != nil {
		fatal(err)
	}

	if !*apply {
		return
	}
	if adv.Empty() {
		fmt.Fprintln(os.Stderr, "nothing to apply")
		return
	}
	m, err := hpart.NewStoreMaintainer(hpart.NewStore(lay))
	if err != nil {
		fatal(err)
	}
	if err := adv.Apply(m); err != nil {
		fatal(err)
	}
	lay = m.Layout()
	if err := fs.SaveManifest(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "applied: %d level merge(s), %d join reduction(s); new signature %016x\n",
		len(adv.Merges), len(adv.Joins), lay.Signature())
}

func parseStrategy(name string) (ping.SliceStrategy, error) {
	switch name {
	case "level":
		return ping.LevelCumulative, nil
	case "product":
		return ping.ProductOrder, nil
	case "largest":
		return ping.LargestFirst, nil
	case "smallest":
		return ping.SmallestFirst, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pingadvise:", err)
	os.Exit(1)
}
