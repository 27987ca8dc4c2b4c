package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// applyBatches is how many held-out batches the in-process replay puts
// through Maintainer.Apply.
const applyBatches = 8

// calibrate times a fixed, seeded sort-and-hash kernel: a number that
// depends on the machine and not on the repository, for normalising
// results taken on different hosts.
func calibrate() time.Duration {
	var runs []float64
	for i := 0; i < 3; i++ {
		rng := rand.New(rand.NewSource(1))
		v := make([]uint64, 1<<19)
		for j := range v {
			v[j] = rng.Uint64()
		}
		start := time.Now()
		sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
		h := fnv.New64a()
		var buf [8]byte
		for _, x := range v {
			for k := range buf {
				buf[k] = byte(x >> (8 * k))
			}
			h.Write(buf[:])
		}
		_ = h.Sum64()
		runs = append(runs, float64(time.Since(start)))
	}
	return time.Duration(median(runs))
}

// scrape saves the server's own view after the traced traffic, for
// whoever reads the trace next to it.
func scrape(srv *server, outDir, workload string) error {
	for _, ep := range []string{"stats", "metrics", "resources"} {
		resp, err := http.Get(srv.base + "/" + ep)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("scrape_%s_%s.txt", workload, ep)), body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func finals(outs []outcome) []float64 {
	var v []float64
	for _, o := range outs {
		if o.fail == "" {
			v = append(v, ms(o.final))
		}
	}
	return v
}

// traced produces the per-layer metrics of one workload. Half of the
// measured time goes to the workload's traffic against an untraced
// pingd, half to the same traffic against a pingd that traces every
// query and writes wide events (part A, whose price is
// obs.overhead_ratio); then the store is reopened in this process and a
// fixed subset of the mix is replayed single-threaded with a span around
// every public call (part B).
func (e *env) traced(ctx context.Context, sp spec, seed int64, seconds float64) (*result, error) {
	var (
		mix     []query
		touched int
	)
	half := time.Duration(seconds / 2 * float64(time.Second))
	r := &result{Workload: sp.name, Seed: seed, Seconds: seconds, Traced: true, Metrics: map[string]float64{}, section: seconds / 2}
	out := r.Metrics
	out["host.calib_ms"] = ms(calibrate())

	st, err := e.prepare(ctx, sp, seed, &mix, &touched)
	if err != nil {
		return nil, err
	}
	defer st.close()
	r.touched = touched
	out["gmark.generate_s"] = st.ds.genTime.Seconds()
	out["hpart.partition_s"] = st.partition.Seconds()
	out["pingd.ready_s"] = st.srv.ready.Seconds()
	plain, err := drive(ctx, sp, st, mix, half, seed, 0)
	if err != nil {
		return nil, err
	}
	r.readSide(mix, plain)
	r.writeSide(plain.ups)

	// One client, one query at a time, over the subset the replay will
	// run: the client-side final time that pingd.overhead_ms compares with
	// the in-process run, then the same queries under a two-step budget
	// for the time from /resume to its first line.
	texts := subset(mix, e.replay)
	index := make(map[string]int, len(mix))
	for i, q := range mix {
		index[q.text] = i
	}
	clientFinal := make([]float64, len(texts))
	var resume, bytesPer []float64
	asLoadGenerator(func() {
		c := newClient(st.srv.base, 1)
		defer c.close()
		for i, text := range texts {
			for _, budgeted := range []bool{false, true} {
				o := c.run(ctx, mix, job{qi: index[text], due: time.Now(), budgeted: budgeted})
				r.Attempted++
				if o.fail != "" {
					r.Failed++
					r.Notes = append(r.Notes, fmt.Sprintf("failed: %s: %q", o.fail, text))
					continue
				}
				if !budgeted {
					clientFinal[i] = ms(o.final)
				}
				resume = append(resume, msAll(o.resumeFirst)...)
			}
		}
	})
	for _, o := range plain.outs {
		bytesPer = append(bytesPer, float64(o.bytes))
		resume = append(resume, msAll(o.resumeFirst)...)
	}
	st.close()

	// Part A.
	wide := filepath.Join(e.outDir, fmt.Sprintf("wide_%s.ndjson", sp.name))
	_ = os.Remove(wide) // a stale file from an earlier run; absent is fine
	stA, err := e.prepare(ctx, sp, seed, &mix, &touched, "-trace", "-trace-sample", "1", "-wide-events", wide)
	if err != nil {
		return nil, err
	}
	defer stA.close()
	withTrace, err := drive(ctx, sp, stA, mix, half, seed, 10)
	if err != nil {
		return nil, err
	}
	if err := scrape(stA.srv, e.outDir, sp.name); err != nil {
		return nil, err
	}
	for _, o := range withTrace.outs {
		r.Attempted++
		if o.fail != "" {
			r.Failed++
			r.Notes = append(r.Notes, fmt.Sprintf("failed under tracing: %s: %q", o.fail, mix[o.qi].text))
		}
	}
	stA.close()

	// Part B, on a pristine copy of the store: the traffic above may have
	// applied a run-dependent number of updates to the served one, and the
	// single-threaded counts must repeat exactly.
	dir, err := os.MkdirTemp(e.outDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, err := partition(stA.ds.base, dir); err != nil {
		return nil, err
	}
	tr := newTracer()
	rp, load, err := openReplay(dir, tr)
	if err != nil {
		return nil, err
	}
	out["hpart.load_s"] = load.Seconds()
	if err := rp.run(ctx, texts, touched); err != nil {
		return nil, err
	}
	batches := stA.ds.updateBatches()
	if err := rp.apply(batches[:min(applyBatches, len(batches))]); err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes, rp.metrics(out)...)
	if err := tr.write(filepath.Join(e.outDir, fmt.Sprintf("trace_%s.ndjson", sp.name))); err != nil {
		return nil, err
	}

	var overhead []float64
	for i, run := range rp.per["ping.run_ms"] {
		if clientFinal[i] > 0 {
			overhead = append(overhead, clientFinal[i]-run)
		}
	}
	out["pingd.overhead_ms"] = median(overhead)
	out["pingd.shed_total"] = plain.shed + withTrace.shed
	out["pingd.bytes_per_response"] = mean(bytesPer)
	out["obs.overhead_ratio"] = median(finals(withTrace.outs)) / median(finals(plain.outs))
	out["cursor.resume_ms"] = median(resume)
	lag := msAll(plain.lag)
	if len(lag) == 0 {
		// A closed loop has no schedule to be late against; what it has is
		// the time between deciding to send and sending.
		for _, o := range plain.outs {
			lag = append(lag, ms(o.sendLag))
		}
	}
	out["gen.lag_ms_p90"] = quantile(sortedCopy(lag), 0.9)
	return r, nil
}
