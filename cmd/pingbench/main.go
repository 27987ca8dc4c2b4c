// Command pingbench runs the paper's evaluation experiments and prints
// paper-style tables and series.
//
// Usage:
//
//	pingbench -exp fig6 -datasets uniprot,shop
//	pingbench -exp all -md -out EXPERIMENTS.md
//	pingbench -exp none -json-out bench/ -datasets uniprot,shop
//
// Experiments: table1, fig5, fig6, fig7, fig8, fig9, table2, ablation,
// all, or none (skip the tables; useful with -json-out).
//
// -json-out DIR additionally writes one machine-readable
// BENCH_<dataset>.json per dataset: the per-query step latencies,
// coverage curve, and exact-answer time. -metrics-addr exposes the
// run's metrics (/metrics, /debug/vars, pprof) while it executes.
//
// -profile-dir DIR captures continuous CPU and heap profiles into DIR
// while the experiments run (same bounded rotation as pingd). Every
// query execution is pprof-labeled with its workload fingerprint, so
// `go tool pprof -tags DIR/cpu.pprof*` afterwards attributes the run's
// CPU per query class.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ping/internal/harness"
	"ping/internal/obs"
	"ping/internal/obs/prof"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id ("+strings.Join(harness.ExperimentIDs, ", ")+", all, or none)")
		datasets    = flag.String("datasets", "", "comma-separated dataset subset (default: all)")
		workers     = flag.Int("workers", 4, "dataflow workers (simulated cluster cores)")
		perBucket   = flag.Int("queries", 5, "queries per star/chain/complex bucket")
		scale       = flag.Float64("scale", 1, "dataset scale multiplier")
		seed        = flag.Int64("seed", 42, "generator seed")
		md          = flag.Bool("md", false, "render as EXPERIMENTS.md markdown")
		out         = flag.String("out", "", "write output to a file instead of stdout")
		jsonOut     = flag.String("json-out", "", "directory to write machine-readable BENCH_<dataset>.json reports into")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and pprof on this address while running (e.g. :9090)")

		profileDir      = flag.String("profile-dir", "", "capture continuous CPU+heap profiles into this directory while running")
		profileInterval = flag.Duration("profile-interval", 15*time.Second, "continuous profile capture cadence")
		profileWindow   = flag.Duration("profile-cpu-window", 5*time.Second, "CPU profiling window per capture")
		profileMax      = flag.Int("profile-max-files", 3, "rotated profile generations kept per kind")
	)
	flag.Parse()

	if *metricsAddr != "" {
		_, lnAddr, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", lnAddr)
	}

	if *profileDir != "" {
		capt, err := prof.StartCapture(prof.CaptureConfig{
			Dir:       *profileDir,
			Interval:  *profileInterval,
			CPUWindow: *profileWindow,
			MaxFiles:  *profileMax,
			Registry:  obs.Default,
			// A run shorter than the interval still leaves one profile
			// behind: the window opens now and Close keeps it.
			CaptureOnStart: true,
		})
		if err != nil {
			fatal(err)
		}
		// Close flushes the in-flight capture so the last window of the
		// run is on disk before the process exits.
		defer capt.Close()
		fmt.Fprintf(os.Stderr, "profiling into %s (every %s, %s CPU window)\n",
			*profileDir, *profileInterval, *profileWindow)
	}

	suite := harness.NewSuite(*workers, *perBucket, *scale, *seed)
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}

	var reports []*harness.Report
	var err error
	switch *exp {
	case "none":
		// Tables skipped: -json-out (or just the metrics endpoint) is the
		// only output.
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

	if *jsonOut != "" {
		if err := os.MkdirAll(*jsonOut, 0o755); err != nil {
			fatal(err)
		}
		jsonNames := names
		if len(jsonNames) == 0 {
			jsonNames = harness.AllDatasetNames
		}
		for _, name := range jsonNames {
			rep, err := suite.BenchJSON(name)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			path := filepath.Join(*jsonOut, "BENCH_"+name+".json")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			err = rep.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%d queries)\n", path, len(rep.Queries))
		}
	}

	if *exp == "none" {
		return
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
