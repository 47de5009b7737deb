GO ?= go

.PHONY: all build test test-checked race vet fmt-check loc bench bench-gate fleet-bench fleet-mem telemetry-bench check-bench obsv-bench obsv-smoke trace-bench trace-smoke corpus-bench corpus-smoke jobs-smoke jobs-bench perfbench-test fuzz-short fuzz-corpus-short clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite again with the runtime invariant checker attached to
# every device built with a nil Checks config — each existing test
# doubles as an energy-conservation / lifecycle-legality check.
test-checked:
	EANDROID_CHECK=1 $(GO) test -count=1 ./...

# The fleet runner is the only concurrent code in the repo; the rest of
# the simulation is single-threaded by design (telemetry recorders are
# per-device and single-goroutine, so they ride the same gate). Race-
# cleanliness of internal/fleet (and of the packages that drive it) is
# an acceptance gate for every PR that touches concurrency.
race:
	$(GO) test -race -count=1 ./internal/fleet/... ./internal/telemetry/... ./internal/experiments/... ./internal/obsv/... ./internal/scenario/... ./internal/corpus/... ./internal/jobs/... ./internal/trace/... .

vet:
	$(GO) vet ./...

# Fails if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Go line counts outside perfbench/ and .bench_build/: non-test and
# test lines, the two numbers a change reports as its net lines of code.
LOC_FIND = find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go'
loc:
	@printf 'non-test %s\n' "$$($(LOC_FIND) ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@printf 'test     %s\n' "$$($(LOC_FIND) -name '*_test.go' -print0 | xargs -0 cat | wc -l)"

bench:
	$(GO) test -run NONE -bench . -benchmem . ./internal/sim ./internal/hw ./internal/telemetry

# Perf regression gate: rerun all seven studies (fleet, telemetry, check,
# obsv, trace, corpus, jobs) at the shape recorded in the committed
# BENCH_*.json artifacts and fail on any study's own gate, on diverged
# corpus statistics, or on a >15% regression of a compared number.
bench-gate:
	$(GO) run ./cmd/benchsuite -benchcmp

# Regenerate the BENCH_fleet.json scaling artifact (wall times,
# bytes/device, device-sim-hours/sec).
fleet-bench:
	$(GO) run ./cmd/benchsuite -fleet 64 -workers 8

# Memory-budget study: a 100k-device heterogeneous population fleet down
# the streaming path must finish inside a constant peak-heap budget
# (256 MiB growth) — proof the accumulator is O(workers+window), not
# O(devices).
fleet-mem:
	$(GO) run ./cmd/benchsuite -fleet-mem 100000

# Regenerate the BENCH_telemetry.json overhead artifact (and enforce the
# recording-recorder <= 10% gate).
telemetry-bench:
	$(GO) run ./cmd/benchsuite -telemetry

# Regenerate the BENCH_check.json invariant-checker overhead artifact
# (and enforce the passive-checks <= 5% gate).
check-bench:
	$(GO) run ./cmd/benchsuite -check

# Regenerate the BENCH_obsv.json observability overhead artifact (and
# enforce the gate on the watchdog + flame collector every job device
# carries, on a recorder with both rings, <= 120%; job devices keep a
# metrics-only recorder since their rings went). The gate fails today: best-of-3 read
# +154…+170% in four runs on a shared 2-CPU host, against +87…+99%
# before the detector's steady ticks became free. The observers cost
# what they did; the stealth-detector baseline they are measured
# against got about 40% cheaper.
obsv-bench:
	$(GO) run ./cmd/benchsuite -obsv

# End-to-end smoke of the live observability plane: an ephemeral-port
# server over a real attack run (healthz/readyz, /metrics parses, one
# SSE tick, clean shutdown) plus the readiness rule (200 from Start
# until Shutdown begins) and an index with no route that cannot answer,
# plus the batch exports: ExportFiles's three files must be byte-equal
# to the Chrome, JSONL and Prometheus encoders behind a job's artifacts,
# plus the observers' allocation pins: a steady-state watchdog window
# close under an active collateral attack
# (TestWatchdogWindowCloseAllocatesNothing) and a flame Accrue over an
# unchanged demand set (TestFlameAccrueAllocatesNothing) allocate
# nothing, and neither does escaping a plain frame name for the flame
# report (TestHTMLEscapeAllocatesNothing), plus the E-Android monitor's
# pins on the path both observers ride: a warm Accrue over a live
# a->b->c chain plus a screen attack allocates nothing
# (TestAccrueAllocatesNothing), and beginning an attack then ending it
# through endWhere allocates only the new Attack
# (TestBeginEndAllocatesOnlyTheAttack).
obsv-smoke:
	$(GO) test -run 'TestServerSmoke|TestReadyzFollowsServing|TestExportFilesWritesAllOutputs|TestWatchdogWindowCloseAllocatesNothing|TestFlameAccrueAllocatesNothing|TestHTMLEscapeAllocatesNothing' -count=1 -v ./internal/obsv
	$(GO) test -run 'TestAccrueAllocatesNothing|TestBeginEndAllocatesOnlyTheAttack' -count=1 -v ./internal/core

# Regenerate the BENCH_trace.json causal-span tracing overhead artifact
# (and enforce the every-device-traced <= 10% gate).
trace-bench:
	$(GO) run ./cmd/benchsuite -trace

# End-to-end smoke of the causal span subsystem: one traced fleet job
# over HTTP must yield a trace.json artifact that parses as Chrome
# trace JSON and forms a single rooted span tree whose root threads
# through the job status, the live /trace feed, and the /metrics RED
# exemplars; /metrics must keep one # TYPE line per family, the RED
# exemplar line shape and the process hygiene gauges, and POST /jobs
# bodies with unknown kinds must add no kind label to /metrics
# (TestRejectedKindsAddNoSeries) — plus, under -race, the
# stalled-subscriber drop test on the live trace stream and the SSE
# regression test (a frame published while a stream flushes its initial
# frames still reaches the subscriber).
trace-smoke:
	$(GO) test -run 'TestTraceSmoke|TestGoldenWorkerIndependence|TestMetricsExposition|TestRejectedKindsAddNoSeries' -count=1 -v ./internal/jobs
	$(GO) test -race -run 'TestTraceStreamStalledSubscriber|TestServeKeepsFrameDuringInitialFlush' -count=1 ./internal/obsv

# Regenerate the BENCH_corpus.json scenario-corpus artifact: every
# (archetype x attack-variant) cell over 40 seeded reps, and enforce the
# interval gates (benign window-FP Wilson upper <= 2%, attack detection
# Wilson lower >= 90%, zero invariant violations).
corpus-bench:
	$(GO) run ./cmd/benchsuite -corpus

# Two-cell, three-rep corpus smoke (one benign, one attack cell): fast
# CI proof that generation, replay and aggregation still work; the
# interval gates are advisory at this scale but violations still fail.
corpus-smoke:
	$(GO) run ./cmd/benchsuite -corpus -reps 3 -corpus-cells 2 -corpus-horizon 1h -out ""

# End-to-end smoke of the jobs control plane under -race: concurrent
# HTTP submit/scrape with enforced 429 backpressure, cache byte-identity
# over HTTP, and mid-job cancellation (the heavy load tests), server
# shutdown closing the manager and leaving no goroutines behind, plus
# the eandroid-serve daemon, plus the pinned artifact digest
# (TestFleetArtifactDigest): the SHA-256 of all 96 artifacts of 16
# fleet jobs, one per corpus cell, must equal the committed value.
jobs-smoke:
	$(GO) test -race -count=1 -run 'TestLoad|TestJobSSEStream|TestQueueCancelWhileQueued|TestServerShutdownClosesManager|TestPlaneShutdownLeavesNoGoroutines|TestFleetArtifactDigest' -v ./internal/jobs
	$(GO) test -count=1 -run 'TestServeAndStop' ./cmd/eandroid-serve

# Regenerate the BENCH_jobs.json cache-study artifact: one scenario job
# per corpus cell submitted cold then warm, gated at cached-batch
# speedup >= 50x.
jobs-bench:
	$(GO) run ./cmd/benchsuite -jobs

# The perfbench module (the repo benchmark) sits outside ./...: vet and
# test it on its own so an API change here cannot break its build unseen.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# 30-second randomized invariant hunt (the CI smoke; run longer locally
# with -fuzztime).
fuzz-short:
	$(GO) test -run NONE -fuzz FuzzInvariants -fuzztime 30s ./internal/check

# 30-second randomized corpus hunt: arbitrary (cell, seed, horizon)
# scripts must conserve energy and end lifecycle-clean.
fuzz-corpus-short:
	$(GO) test -run NONE -fuzz FuzzCorpus -fuzztime 30s ./internal/corpus

clean:
	$(GO) clean ./...
