// Command pingd is the long-running PING serving daemon: it loads a
// store produced by pingload and answers progressive queries over HTTP
// while accepting live updates, with snapshot isolation between the two.
//
// Every query pins the latest published epoch for its whole run and
// streams one JSON line per PQA step (NDJSON); updates are applied
// copy-on-write by a snapshot-mode maintainer and published atomically
// as a new epoch, so readers never block writers and vice versa.
// Admission control bounds concurrent queries (excess requests wait in a
// bounded queue, then get 429).
//
// Endpoints:
//
//	GET/POST /query?q=...     stream one JSON line per progressive step
//	POST     /update?op=add   apply an N-Triples body, publish new epoch
//	GET      /stats           epoch, pins, GC and admission counters
//	GET      /metrics         Prometheus text format (plus /debug/vars, pprof)
//	GET/POST /explain?q=...   query plan; ?analyze=1 runs it, ?format=text
//	GET      /workload        per-fingerprint aggregates; ?top=N, ?format=ndjson
//	GET      /slo             objectives, burn rates, alert states
//	GET/POST /advisor         layout advisor recommendation; POST ?apply=1 installs it
//	GET      /traces          retained query trace trees (-trace); ?format=chrome
//	GET      /resources       top resource consumers by measured cost; ?top=N, ?format=ndjson
//	GET      /dashboard       live HTML dashboard polling the endpoints above
//
// With -admin-addr the introspection surface (/metrics, /debug/*,
// /traces, /resources) moves to a second listener; with -profile-dir
// the daemon captures CPU+heap profiles continuously into bounded
// rotating files whose samples carry query_fp/stage/trace_id pprof
// labels (go tool pprof -tags reads them).
//
// Usage:
//
//	pingd -store ./uniprot-store -addr :8080 -max-inflight 8 -query-timeout 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ping/internal/cursor"
	"ping/internal/dfs"
	"ping/internal/hpart"
	"ping/internal/obs"
	"ping/internal/obs/prof"
	"ping/internal/ping"
	"ping/internal/workload"
)

// daemonConfig is everything pingd's flags set: the server's tunables
// plus the deployment settings only main uses.
type daemonConfig struct {
	serverConfig
	Store, Addr, AdminAddr string
	// Output files; empty turns each off.
	SlowQueryLog, WideEvents, TraceExport, WorkloadOut, ProfileDir string

	SlowQueryThreshold, ShutdownGrace, AdviseInterval time.Duration
	AdviseApply                                       bool
}

// newFlagSet registers every pingd flag on a new FlagSet, bound to its
// field of c.
func newFlagSet(c *daemonConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("pingd", flag.ExitOnError)
	fs.StringVar(&c.Store, "store", "", "store directory written by pingload (required)")
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.AdminAddr, "admin-addr", "", "serve /metrics, /debug/*, /traces and /resources on this separate listener (empty = everything on -addr)")
	fs.StringVar(&c.SlowQueryLog, "slow-query-log", "", "append NDJSON records for slow queries to this file (empty = off)")
	fs.StringVar(&c.WideEvents, "wide-events", "", "append one wide NDJSON event per completed query lineage to this file (empty = off)")
	fs.StringVar(&c.TraceExport, "trace-export", "", "append finished trace spans (NDJSON, one span per line) to this file (empty = off)")
	fs.StringVar(&c.WorkloadOut, "workload-out", "", "write the workload snapshot (NDJSON) to this file on shutdown")
	fs.StringVar(&c.ProfileDir, "profile-dir", "", "capture CPU+heap profiles continuously into this directory (empty = off)")

	fs.IntVar(&c.MaxInflight, "max-inflight", defaultMaxInflight, "maximum concurrently executing queries")
	fs.IntVar(&c.MaxQueue, "max-queue", 8, "maximum queries waiting for a slot (excess gets 429)")
	fs.DurationVar(&c.QueryTimeout, "query-timeout", 60*time.Second, "per-query deadline, queue wait included (0 = none)")
	fs.DurationVar(&c.AdmissionCPU, "admission-cpu", 0, "cost-based admission: shed queries once the measured CPU cost of inflight queries exceeds this budget (0 = off)")
	fs.IntVar(&c.RowLimit, "rows", 20, "maximum bindings per step line when ?bindings=1 (0 disables)")
	fs.DurationVar(&c.ShutdownGrace, "shutdown-grace", 5*time.Second, "how long in-flight queries may drain (pausing as cursors) after SIGTERM/SIGINT")
	fs.Func("strategy", "slice order: level, product, largest or smallest (default level)", func(v string) (err error) {
		c.Strategy, err = ping.ParseSliceStrategy(v)
		return err
	})
	fs.Func("failure-policy", "storage failure handling: failfast or degrade (default failfast)", func(v string) (err error) {
		c.FailurePolicy, err = ping.ParseFailurePolicy(v)
		return err
	})
	fs.BoolVar(&c.UseBloomPruning, "bloom", false, "use sub-partition Bloom filters for pruning (store must be built with -blooms)")
	fs.BoolVar(&c.Trace, "trace", false, "retain per-query trace trees, served at /traces")
	fs.IntVar(&c.TraceSample, "trace-sample", 1, "trace 1 in N queries (head sampling; 1 = all); traceparent requests are always traced")
	fs.DurationVar(&c.AdviseInterval, "advise-interval", 0, "re-run the layout advisor on the live workload this often (0 = off); advice is served at /advisor")
	fs.BoolVar(&c.AdviseApply, "advise-apply", false, "apply advisor recommendations automatically as new epochs (with -advise-interval)")
	fs.DurationVar(&c.SlowQueryThreshold, "slow-query-threshold", 500*time.Millisecond, "latency at or above which a query is logged as slow")
	fs.DurationVar(&c.CursorTTL, "cursor-ttl", cursor.DefaultTTL, "how long a paused query stays resumable (bounds its snapshot lease)")
	return fs
}

// resolve checks the daemon's own settings, then the server's.
func (c *daemonConfig) resolve() error {
	if c.Store == "" {
		return errors.New("-store is required")
	}
	if err := rejectNegative(
		flagValue{"shutdown-grace", int64(c.ShutdownGrace)},
		flagValue{"advise-interval", int64(c.AdviseInterval)},
		flagValue{"slow-query-threshold", int64(c.SlowQueryThreshold)},
	); err != nil {
		return err
	}
	return c.serverConfig.resolve()
}

func main() {
	var cfg daemonConfig
	flags := newFlagSet(&cfg)
	flags.Parse(os.Args[1:]) // ExitOnError: a malformed flag exits 2
	if err := cfg.resolve(); err != nil {
		fmt.Fprintf(os.Stderr, "pingd: %v\n", err)
		flags.Usage()
		os.Exit(2)
	}

	fs, err := dfs.OpenOnDisk(cfg.Store)
	if err != nil {
		fatal(err)
	}
	lay, err := hpart.Load(fs, nil)
	if err != nil {
		fatal(err)
	}
	cfg.Persist = fs

	// The output files rotate at obs.OpenRotatingFile's default size so
	// a long-running daemon cannot grow them without bound.
	open := func(path string) *obs.RotatingFile {
		f, err := obs.OpenRotatingFile(path, 0, 0)
		if err != nil {
			fatal(err)
		}
		return f
	}
	if cfg.SlowQueryLog != "" {
		f := open(cfg.SlowQueryLog)
		defer f.Close()
		cfg.SlowLog = workload.NewSlowLog(f, cfg.SlowQueryThreshold)
	}
	if cfg.WideEvents != "" {
		cfg.Events = obs.NewEventLog(open(cfg.WideEvents), 0, nil)
		defer cfg.Events.Close()
	}
	if cfg.TraceExport != "" {
		cfg.SpanSink = obs.NewAsyncSink(open(cfg.TraceExport), 0)
		defer cfg.SpanSink.Close()
	}

	logger := log.New(os.Stderr, "pingd: ", log.LstdFlags)
	srv, err := newServer(hpart.NewStore(lay), cfg.serverConfig)
	if err != nil {
		fatal(err)
	}
	stopSweeper := every(cursor.SweepInterval, func() { srv.cursors.Sweep() })
	stopAdvisor := srv.startAdvisor(cfg.AdviseInterval, cfg.AdviseApply, logger.Printf)

	// Continuous profiling & runtime metrics: the poller exports
	// runtime_* gauges; the capturer writes CPU+heap profiles on a
	// cadence into bounded rotating files, labeled per query.
	poller := prof.NewPoller(nil, 0).Start()
	defer poller.Stop()
	if cfg.ProfileDir != "" {
		capt, err := prof.StartCapture(prof.CaptureConfig{Dir: cfg.ProfileDir})
		if err != nil {
			fatal(err)
		}
		defer capt.Close()
		logger.Printf("continuous profiling into %s", cfg.ProfileDir)
	}

	httpSrv := &http.Server{Addr: cfg.Addr, Handler: srv.handler(logger.Printf)}
	var adminSrv *http.Server
	if cfg.AdminAddr != "" {
		// Production posture: the query surface stays on -addr; metrics,
		// pprof, traces and the resource ledger move behind -admin-addr
		// (typically loopback or an internal interface).
		public, admin := srv.splitHandlers(logger.Printf)
		httpSrv.Handler = public
		adminSrv = &http.Server{Addr: cfg.AdminAddr, Handler: admin}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if adminSrv != nil {
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("admin listener: %v", err)
			}
		}()
		logger.Printf("admin surface (metrics, pprof, traces, resources) on %s", cfg.AdminAddr)
	}

	fmt.Printf("serving %d triples (%d levels, epoch %d) on %s\n",
		lay.TotalTriples(), lay.NumLevels, srv.store.Epoch(), cfg.Addr)
	fmt.Printf("try: curl '%s/query?q=SELECT...'   update: curl -XPOST --data-binary @delta.nt '%s/update'\n",
		cfg.Addr, cfg.Addr)

	select {
	case err := <-errc:
		// Listener failed before any signal (e.g. port in use).
		fatal(err)
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining for up to %v", cfg.ShutdownGrace)
	// In-flight queries pause at their next step boundary and park as
	// cursors, so the drain completes quickly and nothing is lost.
	srv.beginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), cfg.ShutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logger.Printf("forced shutdown: %v", err)
		httpSrv.Close()
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(shCtx); err != nil {
			adminSrv.Close()
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	stopSweeper()
	stopAdvisor()
	if n, err := srv.cursors.HibernateAll(); err != nil {
		logger.Printf("cursor checkpoint: %v", err)
	} else if n > 0 {
		logger.Printf("checkpointed %d paused queries to disk", n)
	}
	if cfg.WorkloadOut != "" {
		if err := srv.profiler.SaveFile(cfg.WorkloadOut); err != nil {
			logger.Printf("workload snapshot: %v", err)
		} else {
			logger.Printf("workload snapshot saved to %s", cfg.WorkloadOut)
		}
	}
	logger.Printf("shut down cleanly")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pingd: %v\n", err)
	os.Exit(1)
}
