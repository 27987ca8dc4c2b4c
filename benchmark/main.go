// Command benchmark measures pingd from the client socket down.
//
// It generates a gmark dataset from -seed, partitions it, builds and
// launches the real ./cmd/pingd on loopback with its shipped defaults,
// drives it from this one process, verifies every answer, and prints
// every metric of BENCHMARK.json by name with its unit; the last line of
// standard output is one JSON object. With -trace 0 the metrics are the
// end-to-end ones, taken with tracing off; with -trace 1 they are the
// per-layer ones. See README.md in this directory.
//
//	go run ./benchmark -workload deep-miss -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -seed 42 -repeat 2 -out a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json, which is the only place
// names, units, directions and bounds are written down.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// catalogue is the part of BENCHMARK.json the program reads.
type catalogue struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalogue(root string) (*catalogue, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func (c *catalogue) metrics(traced bool) []metricDef {
	if traced {
		return c.PerLayer
	}
	return c.EndToEnd
}

// newEnv locates the checkout, reads the catalogue and builds pingd.
func newEnv(ctx context.Context) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	cat, err := loadCatalogue(root)
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildPingd(ctx, root, outDir)
	if err != nil {
		return nil, err
	}
	return &env{root: root, outDir: outDir, bin: bin, cat: cat, scale: 1, setups: 3, replay: replayQueries}, nil
}

// wireResult is the line the driver reads.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one run as a table and returns its wire form. A metric
// of the catalogue the run did not produce, or produced as NaN or
// infinity, is an error: a span that never ran is reported missing, not
// as zero.
func report(cat *catalogue, r *result) (*wireResult, error) {
	fmt.Printf("\nworkload %s  seed %d  %g s  traced %v  attempted %d  failed %d  lineages timed %d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Attempted, r.Failed, r.Samples)
	w := &wireResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]wireMetric{}}
	var missing []string
	for _, d := range cat.metrics(r.Traced) {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, v, d.Unit)
		w.Metrics[d.Name] = wireMetric{v, d.Unit}
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("workload %s did not produce %v", r.Workload, missing)
	}
	return w, nil
}

func realMain() error {
	var (
		workload = flag.String("workload", "", "workload to run: star-warm, deep-miss, update-mix or open-budget (empty = all four)")
		seed     = flag.Int64("seed", goldenSeed, "seed of the data, the replay order, the arrivals and the budget assignment")
		seconds  = flag.Float64("seconds", 0, "length of the measured section (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
		out      = flag.String("out", "", "also write every run's metrics to this JSON file, for -compare")
		repeat   = flag.Int("repeat", 1, "run this many full sets and print median, quartiles and spread per metric")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments, applying the bounds of BENCHMARK.json")
		golden   = flag.Bool("update-golden", false, "rewrite benchmark/golden for the default seed instead of checking it")
	)
	flag.Parse()

	if *compare {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		cat, err := loadCatalogue(root)
		if err != nil {
			return err
		}
		if flag.NArg() != 2 {
			return errors.New("-compare needs two files written with -out")
		}
		return compareFiles(cat, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}

	// SIGINT and SIGTERM cancel ctx; every layer below returns on it, and
	// the deferred clean-up stops pingd and removes the temp stores.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var run []spec
	if *workload == "" {
		run = specs()
	} else if sp, ok := specByName(*workload); ok {
		run = []spec{sp}
	} else {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	e, err := newEnv(ctx)
	if err != nil {
		return err
	}
	e.updateGolden = *golden
	if *seconds == 0 {
		*seconds = float64(e.cat.RunSeconds)
	}

	var (
		all  []*result
		last *wireResult
		bad  int
	)
	for set := 0; set < *repeat; set++ {
		for _, sp := range run {
			var r *result
			if *trace == 1 {
				r, err = e.traced(ctx, sp, *seed, *seconds)
			} else {
				r, err = e.endToEnd(ctx, sp, *seed, *seconds)
			}
			if err != nil {
				return fmt.Errorf("workload %s: %w", sp.name, err)
			}
			if err := sp.pre.check(r); err != nil {
				return fmt.Errorf("workload %s does not hold its preconditions: %w", sp.name, err)
			}
			if last, err = report(e.cat, r); err != nil {
				return err
			}
			bad += r.Failed
			all = append(all, r)
		}
	}
	if *repeat > 1 {
		printRepeats(e.cat, all)
	}
	if *out != "" {
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The driver runs one workload once and reads the last line.
	if len(all) == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if bad > 0 {
		return fmt.Errorf("%d operations failed or returned a wrong answer", bad)
	}
	return nil
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
