package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// seriesKey names the values of one metric on one workload over the runs
// of a file or of a -repeat invocation.
type seriesKey struct {
	workload string
	traced   bool
	metric   string
}

func collect(rs []*result) map[seriesKey][]float64 {
	out := make(map[seriesKey][]float64)
	for _, r := range rs {
		for name, v := range r.Metrics {
			k := seriesKey{r.Workload, r.Traced, name}
			out[k] = append(out[k], v)
		}
	}
	return out
}

// forEachSeries visits the catalogue's metrics per workload in the order
// of BENCHMARK.json, so tables read the same on every run.
func forEachSeries(cat *catalogue, fn func(k seriesKey, d metricDef)) {
	for _, w := range cat.Workloads {
		for _, traced := range []bool{false, true} {
			for _, d := range cat.metrics(traced) {
				fn(seriesKey{w.Name, traced, d.Name}, d)
			}
		}
	}
}

// printRepeats prints, per metric and workload, the median, quartiles
// and spread (interquartile distance over median) across the sets.
func printRepeats(cat *catalogue, rs []*result) {
	by := collect(rs)
	fmt.Printf("\n%-12s %-28s %12s %12s %12s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	forEachSeries(cat, func(k seriesKey, d metricDef) {
		v := by[k]
		if len(v) < 2 {
			return
		}
		q1, q3 := quartiles(v)
		fmt.Printf("%-12s %-28s %12.4f %12.4f %12.4f %7.1f%%  %s\n", k.workload, k.metric, median(v), q1, q3, 100*spread(v), d.Unit)
	})
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

const regression = "REGRESSION"

// judge compares B's runs of one metric with A's: how much worse B's
// median is, as a share of A's and in the metric's worse direction; A's
// run-to-run spread; and the verdict.
func judge(d metricDef, a, b []float64) (worse, sp float64, verdict string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worse = -worse
	}
	sp = spread(a)
	switch {
	case math.IsNaN(sp):
		verdict = "unresolved (one run, no spread)"
	case math.Abs(worse) <= sp:
		verdict = "unresolved (inside spread)"
	case d.Bound > 0 && worse > d.Bound:
		verdict = regression
	case worse < 0:
		verdict = "better"
	case d.Bound == 0:
		verdict = "worse (no bound)"
	default:
		verdict = "within bound"
	}
	return worse, sp, verdict
}

// compareFiles prints one row per (metric, workload) of two -out files:
// both medians, the change of B against A in the metric's worse
// direction, A's own run-to-run spread, and a verdict. A change smaller
// than the spread is unresolved, not unchanged; a change for the worse
// beyond the bound of BENCHMARK.json is a regression. Per-layer metrics
// have no bound and are never regressions.
func compareFiles(cat *catalogue, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	byA, byB := collect(a), collect(b)
	regressions := 0
	fmt.Printf("%-12s %-28s %12s %12s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "spread", "bound", "verdict")
	forEachSeries(cat, func(k seriesKey, d metricDef) {
		va, vb := byA[k], byB[k]
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		worse, sp, verdict := judge(d, va, vb)
		if verdict == regression {
			regressions++
		}
		fmt.Printf("%-12s %-28s %12.4f %12.4f %+8.1f%% %7.1f%% %6.0f%%  %s\n", k.workload, k.metric, median(va), median(vb), 100*worse, 100*sp, 100*d.Bound, verdict)
	})
	if regressions > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressions)
	}
	return nil
}
