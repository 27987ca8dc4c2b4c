package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is the load generator's side of the pingd socket.
type client struct {
	http *http.Client
	base string
}

// newClient caps the generator at conns connections to the server.
func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// job is one lineage to run: a query of the mix, when it was due, and
// how it is asked.
type job struct {
	qi       int
	due      time.Time
	budgeted bool // max_steps=2 per segment, resumed until done
	bindings bool // ask for decoded rows on every step line
}

// outcome is what the client saw of one lineage.
type outcome struct {
	qi int
	// fail is empty for a lineage that completed with a verified answer.
	fail string
	// ttfa and final are measured from the instant the request was due.
	ttfa, final time.Duration
	covAUC      float64
	steps       int
	segments    int
	bytes       int64
	// resumeFirst holds, per /resume call, the time to its first line.
	resumeFirst []time.Duration
	// sendLag is how long after it was due the first request went out.
	sendLag time.Duration
}

// ndLine is the union of pingd's step, done, paused and error lines.
type ndLine struct {
	Step    int    `json:"step"`
	Answers int    `json:"answers"`
	Cursor  string `json:"cursor"`
	Done    bool   `json:"done"`
	Exact   bool   `json:"exact"`
	Paused  bool   `json:"paused"`
	Error   string `json:"error"`
}

// run executes one lineage and verifies it as it is timed: HTTP 200,
// no error line, step answers monotone, done.exact, and a final
// cardinality inside the query's [lo, hi].
func (c *client) run(ctx context.Context, mix []query, j job) outcome {
	q := mix[j.qi]
	out := outcome{qi: j.qi}
	params := url.Values{"q": {q.text}}
	if j.budgeted {
		params.Set("max_steps", "2")
	}
	if j.bindings {
		params.Set("bindings", "1")
	}
	target := c.base + "/query?" + params.Encode()

	// The coverage curve is a step function of time since due: each step
	// line raises it to answers/final.
	type point struct {
		at      time.Duration
		answers int
	}
	var curve []point
	prev := -1
	for {
		out.segments++
		sent := time.Now()
		if out.segments == 1 {
			out.sendLag = sent.Sub(j.due)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			out.fail = err.Error()
			return out
		}
		resp, err := c.http.Do(req)
		if err != nil {
			out.fail = err.Error()
			return out
		}
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out.fail = fmt.Sprintf("HTTP %d", resp.StatusCode)
			return out
		}
		var last ndLine
		cursor := ""
		first := true
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			raw, err := br.ReadBytes('\n')
			now := time.Now()
			if len(bytes.TrimSpace(raw)) > 0 {
				out.bytes += int64(len(raw))
				if first && out.segments > 1 {
					out.resumeFirst = append(out.resumeFirst, now.Sub(sent))
				}
				first = false
				last = ndLine{}
				if jerr := json.Unmarshal(raw, &last); jerr != nil {
					out.fail = "bad NDJSON line: " + jerr.Error()
				} else if last.Step > 0 {
					out.steps++
					if last.Answers < prev {
						out.fail = fmt.Sprintf("answers fell from %d to %d at step %d", prev, last.Answers, last.Step)
					}
					prev = last.Answers
					if last.Answers > 0 && out.ttfa == 0 {
						out.ttfa = now.Sub(j.due)
					}
					curve = append(curve, point{now.Sub(j.due), last.Answers})
					cursor = last.Cursor
				}
			}
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		out.final = time.Since(j.due)
		switch {
		case out.fail != "":
			return out
		case last.Error != "":
			out.fail = "error line: " + last.Error
			return out
		case last.Paused:
			if last.Cursor != "" {
				cursor = last.Cursor
			}
			target = c.base + "/resume?" + url.Values{"cursor": {cursor}, "max_steps": {"2"}}.Encode()
			continue
		case !last.Done:
			out.fail = "stream ended without a done line"
			return out
		}
		if !last.Exact {
			out.fail = "done line is not exact"
		} else if last.Answers < q.lo || last.Answers > q.hi {
			out.fail = fmt.Sprintf("final cardinality %d, want %d..%d", last.Answers, q.lo, q.hi)
		} else if out.ttfa == 0 {
			out.fail = "no step line carried answers"
		}
		// Coverage integrated over time and divided by the final time.
		var area float64
		for i, p := range curve {
			end := out.final
			if i+1 < len(curve) {
				end = curve[i+1].at
			}
			area += float64(p.answers) * float64(end-p.at)
		}
		if last.Answers > 0 {
			out.covAUC = area / float64(last.Answers) / float64(out.final)
		}
		return out
	}
}

// closedLoop replays the mix from clients connections, each sending its
// next request when the previous lineage is complete, until the deadline
// (or, with passes > 0, until the mix has been replayed that many
// times). A request is due the instant it is sent.
func closedLoop(ctx context.Context, c *client, mix []query, clients int, dur time.Duration, passes int, bindingsEvery int) []outcome {
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if passes > 0 && n >= passes*len(mix) || passes == 0 && !time.Now().Before(deadline) {
					return
				}
				o := c.run(ctx, mix, job{qi: n % len(mix), due: time.Now(), bindings: bindingsEvery > 0 && n%bindingsEvery == 0})
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// openLoop sends lineages at seeded Poisson arrival instants, about rate
// per second for dur, over at most conns connections, and times each from
// the instant it was due: a stall delays the requests behind it and that
// wait counts. It also returns how late the generator itself dispatched.
func openLoop(ctx context.Context, c *client, mix []query, conns int, rate float64, dur time.Duration, seed int64) (outs []outcome, lag []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	// The count is rate*dur rounded to whole passes over the mix, so every
	// template is asked equally often: the slowest tenth of the templates
	// is what p90 reads, and a part pass holds anything from none to most
	// of them (ten seeds spread ttfa_ms_p90 by 16 % over 3.4 passes and by
	// 9 % over 3).
	passes := max(1, int(rate*dur.Seconds()/float64(len(mix))+0.5))
	// A Poisson process conditioned on its count: that many arrival
	// instants drawn uniformly over the section. The gaps stay
	// exponential-like and bursty; what is removed is the run-to-run noise
	// of the count itself, which would show as throughput noise.
	offsets := make([]time.Duration, passes*len(mix))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(offsets, func(a, b int) bool { return offsets[a] < offsets[b] })
	// Sized to the whole schedule, so the dispatcher never blocks on busy
	// connections and its lateness is its own.
	jobs := make(chan job, len(offsets))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o := c.run(ctx, mix, j)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		lag = append(lag, time.Since(due))
		jobs <- job{qi: i % len(mix), due: due, budgeted: mix[i%len(mix)].budgeted}
	}
	close(jobs)
	wg.Wait()
	return outs, lag
}

// update is one /update POST as the writer saw it.
type update struct {
	latency time.Duration
	ok      bool
}

// postUpdate sends one N-Triples batch and waits for the epoch.
func (c *client) postUpdate(ctx context.Context, body []byte) update {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/update", bytes.NewReader(body))
	if err != nil {
		return update{}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return update{latency: time.Since(start)}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return update{latency: time.Since(start), ok: resp.StatusCode == http.StatusOK}
}

// writeLoop posts one batch every updateEvery, paced by the schedule and
// not by the replies, until dur has passed or the batches run out.
func writeLoop(ctx context.Context, c *client, d *dataset, dur time.Duration) []update {
	var ups []update
	start := time.Now()
	for i, b := range d.updateBatches() {
		due := start.Add(time.Duration(i) * updateEvery)
		if due.Sub(start) >= dur || time.Since(start) >= dur {
			break
		}
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
			return ups
		}
		ups = append(ups, c.postUpdate(ctx, d.ntriples(b)))
	}
	return ups
}
