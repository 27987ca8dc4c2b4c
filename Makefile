GO ?= go

# Minimum statement coverage (%) for internal/obs enforced by `make cover`.
OBS_COVER_MIN ?= 80

.PHONY: check build vet fmt test race benchmark cover workload-report advise-report fuzz noskip lint loc

# check is the full gate: build, vet, formatting, the race-enabled test
# suite (which includes the exact-count gate, internal/ping's
# counts_test.go), the coverage floor, and the no-skip guard on the SLO
# and wide-event suites. CI and pre-commit should run `make check`.
check: build vet fmt race cover noskip

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz hammers the decoders of untrusted bytes — durable-cursor client
# tokens and on-disk records, the PCOL column files every sub-partition
# and index is read from, the Bloom filter files and the advisor's
# joins.jrd that Load reads at start-up, the manifest log OpenOnDisk
# replays and the dictionary base and segments Load reads at every
# start, the N-Triples and SPARQL parsers behind pingd's /update
# and /query bodies, and the traceparent header every request may
# carry: no input may panic
# or allocate for data it does not carry, and accepted inputs must
# round-trip. Go allows one -fuzz pattern per invocation, so
# each target gets its own run.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParseToken$$' -fuzztime=$(FUZZTIME) ./internal/cursor/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRecord$$' -fuzztime=$(FUZZTIME) ./internal/cursor/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeColumns$$' -fuzztime=$(FUZZTIME) ./internal/columnar/
	$(GO) test -run='^$$' -fuzz='^FuzzBloomRead$$' -fuzztime=$(FUZZTIME) ./internal/bloom/
	$(GO) test -run='^$$' -fuzz='^FuzzReadJoins$$' -fuzztime=$(FUZZTIME) ./internal/hpart/
	$(GO) test -run='^$$' -fuzz='^FuzzReplayManifestLog$$' -fuzztime=$(FUZZTIME) ./internal/dfs/
	$(GO) test -run='^$$' -fuzz='^FuzzReadDict$$' -fuzztime=$(FUZZTIME) ./internal/rdf/
	$(GO) test -run='^$$' -fuzz='^FuzzParseNTriples$$' -fuzztime=$(FUZZTIME) ./internal/rdf/
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/sparql/
	$(GO) test -run='^$$' -fuzz='^FuzzParseTraceparent$$' -fuzztime=$(FUZZTIME) ./internal/obs/

# benchmark runs the end-to-end benchmark declared in BENCHMARK.json
# (benchmark/README.md): it builds and launches pingd on generated data
# and drives every workload from the client socket. Pass flags through
# BENCH_ARGS, e.g. BENCH_ARGS='-repeat 3 -out new.json', then compare two
# result files with BENCH_ARGS='-compare old.json new.json'.
BENCH_ARGS ?=
benchmark:
	$(GO) run ./benchmark $(BENCH_ARGS)

# workload-report prints the top-N query fingerprints of a workload
# snapshot (pingd -workload-out, or /workload?format=ndjson).
TOP ?= 10
SNAPSHOT ?= workload.ndjson
workload-report:
	$(GO) run ./cmd/pingworkload -in $(SNAPSHOT) -top $(TOP)

# advise-report analyzes a workload snapshot (pingd -workload-out, or
# /workload?format=ndjson) against a persisted store and prints the
# layout advisor's plan: cold-level merges, join reductions, and the
# estimated p95 steps-to-first delta. Dry run — rerun cmd/pingadvise
# with -apply to restructure the store in place.
STORE ?= store
advise-report:
	$(GO) run ./cmd/pingadvise -store $(STORE) -workload $(SNAPSHOT) -top $(TOP)

# noskip guards the SLO and wide-event suites: they back the
# observability acceptance criteria, so a skipped test (an overeager
# t.Skip gate, a renamed helper) must fail the build, not silently pass.
noskip:
	@out="$$($(GO) test -v -count=1 ./internal/obs/slo/ && \
	         $(GO) test -v -count=1 -run 'EventLog|WideEvent|SLO' ./internal/obs/ ./cmd/pingd/)" || \
		{ echo "$$out" | tail -40; exit 1; }; \
	if echo "$$out" | grep -q -- '--- SKIP'; then \
		echo "SLO/wide-event tests were skipped:"; echo "$$out" | grep -- '--- SKIP'; exit 1; \
	fi; \
	if ! echo "$$out" | grep -q -- '--- PASS'; then \
		echo "no SLO/wide-event tests ran (test name pattern rot?)"; exit 1; \
	fi; \
	echo "slo/wide-event suites: all ran, none skipped"

# loc prints the non-test Go lines of every package and their total
# outside benchmark/ (the end-to-end benchmark harness): the size
# figure a change that shrinks the code reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."; \
	    n[d] += $$1; if (d !~ /^benchmark(\/|$$)/) t += $$1 } \
	  END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
	    printf "%7d  total outside benchmark/\n", t }'

# lint runs staticcheck and govulncheck when installed (CI installs
# both; locally they are optional extras on top of go vet).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

# cover enforces a minimum statement coverage on the observability layer
# (the rest of the suite is gated by correctness properties, not lines).
# The profile lands under .cover/ so it can never be committed by a
# stray `git add .` (the directory is git-ignored).
COVERPROFILE ?= .cover/obs.out
cover:
	@mkdir -p $(dir $(COVERPROFILE))
	$(GO) test -coverprofile=$(COVERPROFILE) ./internal/obs/
	@total=$$($(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/obs coverage: $$total% (min $(OBS_COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(OBS_COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "coverage below minimum"; exit 1; }
