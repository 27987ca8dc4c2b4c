// Command tpfserver serves an N-Triples file through the Triple Pattern
// Fragments interface (the §2.4 restricted-server family): GET
// /fragment?s=&p=&o=&page=N returns one JSON page of matching triples.
// The server never joins — that burden falls on a smart client, which is
// exactly the architecture the paper contrasts PING against.
//
// The process also exposes /metrics (Prometheus text format),
// /debug/vars, and the pprof handlers on the same listener, logs every
// request, and shuts down gracefully on SIGINT/SIGTERM (in-flight
// fragment requests get up to 5s to drain).
//
// Usage:
//
//	tpfserver -in uniprot.nt -addr :8080 -page 100
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

	"ping/internal/baseline/tpf"
	"ping/internal/obs"
	"ping/internal/rdf"
)

// shutdownGrace bounds how long in-flight requests may drain after a
// termination signal.
const shutdownGrace = 5 * time.Second

func main() {
	var (
		in   = flag.String("in", "", "input N-Triples file (required)")
		addr = flag.String("addr", ":8080", "listen address")
		page = flag.Int("page", tpf.PageSize, "fragment page size")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	g, err := rdf.ParseNTriples(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	g.Dedup()
	srv := tpf.NewServer(g, *page)

	logger := log.New(os.Stderr, "tpfserver: ", log.LstdFlags)
	mux := http.NewServeMux()
	mux.Handle("/fragment", obs.Instrument(obs.Default, "/fragment", logger.Printf, srv.Handler()))
	mux.Handle("/", obs.Handler(obs.Default))

	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	fmt.Printf("serving %d triples on %s (page size %d)\n", g.Len(), *addr, *page)
	fmt.Printf("try: curl '%s/fragment?p=%%3C...%%3E'   metrics: curl '%s/metrics'\n", *addr, *addr)

	select {
	case err := <-errc:
		// Listener failed before any signal (e.g. port in use).
		fatal(err)
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining for up to %v", shutdownGrace)
	shCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logger.Printf("forced shutdown: %v", err)
		httpSrv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	logger.Printf("shut down cleanly")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tpfserver: %v\n", err)
	os.Exit(1)
}
