// Command pingbench runs the paper's evaluation experiments and prints
// paper-style tables and series.
//
// Usage:
//
//	pingbench -exp fig6 -datasets uniprot,shop
//	pingbench -exp all -md -out EXPERIMENTS.md
//
// Experiments: table1, fig5, fig6, fig7, fig8, fig9, table2, ablation,
// or all.
//
// -metrics-addr exposes the run's metrics (/metrics, /debug/vars,
// pprof) while it executes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ping/internal/harness"
	"ping/internal/obs"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id ("+strings.Join(harness.ExperimentIDs, ", ")+", or all)")
		datasets    = flag.String("datasets", "", "comma-separated dataset subset (default: all)")
		workers     = flag.Int("workers", 4, "dataflow workers (simulated cluster cores)")
		perBucket   = flag.Int("queries", 5, "queries per star/chain/complex bucket")
		scale       = flag.Float64("scale", 1, "dataset scale multiplier")
		seed        = flag.Int64("seed", 42, "generator seed")
		md          = flag.Bool("md", false, "render as EXPERIMENTS.md markdown")
		out         = flag.String("out", "", "write output to a file instead of stdout")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and pprof on this address while running (e.g. :9090)")
	)
	flag.Parse()

	if *metricsAddr != "" {
		_, lnAddr, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", lnAddr)
	}

	suite := harness.NewSuite(*workers, *perBucket, *scale, *seed)
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}

	var reports []*harness.Report
	var err error
	switch *exp {
	case "all":
		reports, err = suite.RunAll(names)
	default:
		var r *harness.Report
		r, err = suite.Run(*exp, names)
		if r != nil {
			reports = append(reports, r)
		}
	}
	if err != nil {
		fatal(err)
	}

	var text string
	if *md {
		text = harness.Markdown(suite.Describe(), reports)
	} else {
		var b strings.Builder
		for _, r := range reports {
			b.WriteString(r.String())
			b.WriteString("\n")
		}
		text = b.String()
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
		return
	}
	fmt.Print(text)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pingbench: %v\n", err)
	os.Exit(1)
}
