GO ?= go

# Minimum statement coverage (%) for internal/obs enforced by `make cover`.
OBS_COVER_MIN ?= 80

.PHONY: check build vet fmt test race bench benchmark bench-json bench-compare bench-gate cover workload-report advise-report prof-report fuzz noskip lint

# check is the full gate: build, vet, formatting, the race-enabled test
# suite, the coverage floor, the no-skip guard on the SLO and wide-event
# suites, and the benchmark regression gate. CI and pre-commit should
# run `make check`.
check: build vet fmt race cover noskip bench-gate

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
# start, and the N-Triples and SPARQL parsers behind pingd's /update
# and /query bodies: no input may panic
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

# benchmark runs the end-to-end benchmark declared in BENCHMARK.json
# (benchmark/README.md): it builds and launches pingd on generated data
# and drives every workload from the client socket. Pass flags through
# BENCH_ARGS, e.g. BENCH_ARGS='-repeat 3 -out new.json', then compare two
# result files with BENCH_ARGS='-compare old.json new.json'.
BENCH_ARGS ?=
benchmark:
	$(GO) run ./benchmark $(BENCH_ARGS)

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-json writes machine-readable per-query trajectories (step
# latencies, coverage curve, exact-answer time) as bench/BENCH_<ds>.json,
# and captures CPU+heap profiles of the run into bench/profiles (render
# them with `make prof-report`).
bench-json:
	$(GO) run ./cmd/pingbench -exp none -json-out bench -datasets uniprot,shop -scale 0.5 \
		-profile-dir bench/profiles -profile-interval 10s -profile-cpu-window 3s

# bench-compare benchmarks HEAD against the uncommitted working tree:
# the dirty changes are stashed, the baseline run recorded, the stash
# popped, the candidate run recorded, and the per-benchmark deltas
# printed side by side. Tune the benchmark subset with BENCH (regexp)
# and repetitions with BENCHTIME.
BENCH ?= .
BENCHTIME ?= 3x
bench-compare:
	@if git diff --quiet && git diff --cached --quiet; then \
		echo "working tree is clean — nothing to compare against HEAD"; exit 1; \
	fi
	@echo "== baseline (HEAD) =="
	@git stash push --quiet --include-untracked -- ':!bench-*.txt' && \
	{ $(GO) test -bench='$(BENCH)' -benchtime=$(BENCHTIME) -run='^$$' . | tee bench-baseline.txt; \
	  git stash pop --quiet; }
	@echo "== candidate (working tree) =="
	@$(GO) test -bench='$(BENCH)' -benchtime=$(BENCHTIME) -run='^$$' . | tee bench-candidate.txt
	@echo "== delta (ns/op, candidate vs baseline) =="
	@awk 'FNR==NR { if ($$1 ~ /^Benchmark/) base[$$1]=$$3; next } \
	  $$1 ~ /^Benchmark/ { \
	    if ($$1 in base && base[$$1]+0 > 0) \
	      printf "%-60s %12.0f -> %12.0f  (%+.1f%%)\n", $$1, base[$$1], $$3, 100*($$3-base[$$1])/base[$$1]; \
	    else printf "%-60s %25s %12.0f  (new)\n", $$1, "", $$3 }' \
	  bench-baseline.txt bench-candidate.txt

# bench-gate is the perf regression gate on the PQA-critical kernels:
# incremental PQA, pair-block pack/decode, dictionary lookup and
# resident footprint, the join and distinct kernels, and columnar Auto
# selection. Any of them slowing down by more than GATE_TOLERANCE
# percent (best-of-GATE_COUNT ns/op) fails the build. The baseline is
# measured from HEAD on first run — dirty changes are stashed around
# it — and cached in bench-gate-baseline.txt, which is git-ignored so
# every machine calibrates against itself rather than numbers from
# foreign hardware. Delete the file to re-baseline. On a clean tree
# (CI) baseline and candidate coincide, and the gate degrades into a
# smoke run that keeps the benchmarks compiling and finishing.
GATE_BENCH ?= BenchmarkPQAIncremental|BenchmarkPairBlock|BenchmarkDictLookup|BenchmarkDictResidentFootprint|BenchmarkEngineJoin|BenchmarkRelationDistinct|BenchmarkAutoEncode|BenchmarkColumnarEncodeDecode
GATE_TOLERANCE ?= 20
GATE_COUNT ?= 3
GATE_BENCHTIME ?= 50x
GATE_PKGS ?= . ./internal/columnar/
bench-gate:
	@if [ ! -f bench-gate-baseline.txt ]; then \
		echo "== bench-gate: no baseline, measuring HEAD =="; \
		if git diff --quiet && git diff --cached --quiet; then \
			$(GO) test -bench='$(GATE_BENCH)' -benchtime=$(GATE_BENCHTIME) -count=$(GATE_COUNT) -run='^$$' $(GATE_PKGS) > bench-gate-baseline.txt; \
		else \
			git stash push --quiet --include-untracked -- ':!bench-gate-*.txt' && \
			{ $(GO) test -bench='$(GATE_BENCH)' -benchtime=$(GATE_BENCHTIME) -count=$(GATE_COUNT) -run='^$$' $(GATE_PKGS) > bench-gate-baseline.txt || true; \
			  git stash pop --quiet; }; \
		fi; \
	fi
	@echo "== bench-gate: candidate (working tree) =="
	@$(GO) test -bench='$(GATE_BENCH)' -benchtime=$(GATE_BENCHTIME) -count=$(GATE_COUNT) -run='^$$' $(GATE_PKGS) > bench-gate-candidate.txt
	@awk -v tol=$(GATE_TOLERANCE) ' \
	  FNR==NR { if ($$1 ~ /^Benchmark/ && (!($$1 in base) || $$3+0 < base[$$1]+0)) base[$$1]=$$3; next } \
	  $$1 ~ /^Benchmark/ { if (!($$1 in cand) || $$3+0 < cand[$$1]+0) cand[$$1]=$$3 } \
	  END { bad=0; \
	    for (b in cand) { \
	      if (!(b in base) || base[b]+0 <= 0) { printf "%-64s %38.0f  (new)\n", b, cand[b]; continue } \
	      d = 100*(cand[b]-base[b])/base[b]; \
	      printf "%-64s %12.0f -> %12.0f  (%+.1f%%)\n", b, base[b], cand[b], d; \
	      if (d > tol+0) bad++ } \
	    if (bad) { printf "bench-gate: %d benchmark(s) regressed more than %d%%\n", bad, tol; exit 1 } \
	    print "bench-gate: no regression beyond " tol "%" }' \
	  bench-gate-baseline.txt bench-gate-candidate.txt

# workload-report prints the top-N query fingerprints of a workload
# snapshot (pingd -workload-out, or /workload?format=ndjson).
TOP ?= 10
SNAPSHOT ?= workload.ndjson
workload-report:
	$(GO) run ./cmd/pingworkload -in $(SNAPSHOT) -top $(TOP)

# prof-report renders a continuous-profiling capture directory (written
# by pingd/pingbench -profile-dir, default the bench-json capture) as
# the top-N query fingerprints by attributed CPU.
PROFDIR ?= bench/profiles
prof-report:
	$(GO) run ./cmd/pingprof -dir $(PROFDIR) -top $(TOP)

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
