GO ?= go

.PHONY: all build test race vet fmt-check arch-check loc bench bench-gate fleet-bench fleet-mem telemetry-bench check-bench obsv-bench obsv-smoke trace-bench trace-smoke corpus-bench corpus-smoke jobs-smoke jobs-bench perfbench-test fuzz-short fuzz-corpus-short fuzz-json-short clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

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

# Same artifact bytes on every architecture. Go may fuse x*y + z into
# one multiply-add with a single rounding, and does on arm64, loong64,
# ppc64le, riscv64 and s390x (amd64 never does), so product code rounds
# every product that feeds a sum with an explicit float64(...)
# conversion. This compiles the module for those five with the
# compiler's assembly listing (-S; a cached build replays it) and fails
# on any fused instruction. Test files are not compiled, so only
# product code is checked, each function once. It needs only the Go
# toolchain; run it with the Go release CI uses, since each release
# fuses in its own set of places.
ARCH_CHECK_ARCHS = arm64 loong64 ppc64le riscv64 s390x
FUSED_OPS = FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB
arch-check:
	@out="$$(for arch in $(ARCH_CHECK_ARCHS); do \
		{ GOARCH=$$arch $(GO) build -gcflags='repro/...=-S' ./... 2>&1 || echo 'build failed'; } | \
			awk -v arch=$$arch '/ STEXT / { fn = $$1 } /^build failed$$/ { print arch ": build failed" } \
				/[ \t]($(FUSED_OPS))[ \t]/ { sub(/^[ \t]+/, ""); print arch " " fn ": " $$0 }'; \
	done)"; \
	if [ -n "$$out" ]; then echo "$$out"; \
		echo "arch-check: fused multiply-add in product code, or a failed build (GOARCH=<arch> $(GO) build ./... shows why)"; exit 1; fi; \
	echo "arch-check: no fused multiply-add in product code on $(ARCH_CHECK_ARCHS)"

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
# metrics-only recorder since their rings went). The gate passes since
# watchdog findings and anomaly events carry numbers, not text: five
# runs on a shared 2-CPU host read +93.8…+103.4%, each on its first
# attempt, against +134.7…+146.6% (best of 3, failing) in three runs
# just before that change.
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
# (TestBeginEndAllocatesOnlyTheAttack), plus the watchdog's pins on
# findings that carry numbers, not text: once DefaultMaxFindings are
# kept, a window raising more findings on a device whose recorder keeps
# metrics only allocates nothing
# (TestWatchdogDroppedFindingsAllocateNothing), and one "enabled" run of
# the obsv study allocates at most 400 times
# (TestObsvStudyAllocationPin; 11,814 when each finding's text was
# rendered as it was raised), plus the pins on a meter interval that
# costs only its additions: every sink adds by index into slots it
# resolved when its inputs changed, and each agrees bit for bit with
# the map-based version kept in a test file. The flame collector's
# folds equal the old collector's over every corpus cell and over hand-
# built edges (TestFlameMatchesReference*), and a demand change then
# steady intervals allocate nothing once warm
# (TestFlameAccrueAllocatesNothing); the monitor's per-driver slices
# give the nested maps' CollateralMap and CollateralJ
# (TestCollateralStoreMatchesReference, TestAccrueMatchesReference,
# TestCollateralJMatchesCollateralMap); the recorder keeps one
# attribution histogram per UID, slotted or not
# (TestAttributionHistogramPerUID); Observe picks
# sort.SearchFloat64s's bucket (TestObserveMatchesSearchFloat64s);
# folding random registries with Metrics.Add renders the bytes of the
# Snapshot merge it replaced, kept in metrics_ref_test.go, and keeps its
# values bit for bit (TestMetricsAddMatchesReference); the
# whole-mW fast path writes FormatFloat's bytes
# (TestAppendWholeMatchesFormatFloat); the running foreground stretch
# reads as the per-interval sum did
# (TestForegroundTimeMatchesPerIntervalSum); a steady flush with a
# recorder allocates nothing (TestFlushSteadyStateAllocs); a finished
# watchdog keeps its findings at their size and hands its buffer on
# (TestWatchdogFindingsKeptAtTheirSize); and an activity start's
# history entry builds no string (TestActivityStartDetailRenderedOnRead).
obsv-smoke:
	$(GO) test -run 'TestServerSmoke|TestReadyzFollowsServing|TestExportFilesWritesAllOutputs|TestWatchdogWindowCloseAllocatesNothing|TestWatchdogDroppedFindingsAllocateNothing|TestWatchdogFindingsKeptAtTheirSize|TestFlameAccrueAllocatesNothing|TestFlameMatchesReference|TestHTMLEscapeAllocatesNothing' -count=1 -v ./internal/obsv
	$(GO) test -run 'TestAccrueAllocatesNothing|TestBeginEndAllocatesOnlyTheAttack|TestCollateralStoreMatchesReference|TestAccrueMatchesReference|TestCollateralJMatchesCollateralMap|TestActivityStartDetailRenderedOnRead' -count=1 -v ./internal/core
	$(GO) test -run 'TestObserveMatchesSearchFloat64s|TestAppendWholeMatchesFormatFloat|TestAttributionHistogramPerUID|TestMetricsAddMatchesReference' -count=1 -v ./internal/telemetry
	$(GO) test -run 'TestForegroundTimeMatchesPerIntervalSum' -count=1 -v ./internal/accounting
	$(GO) test -run 'TestFlushSteadyStateAllocs' -count=1 -v ./internal/hw
	$(GO) test -run 'TestObsvStudyAllocationPin' -count=1 -v ./internal/experiments

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
# frames still reaches the subscriber), plus the per-device span store:
# a traced device keeps one monotone stream per phase kind, and their
# merge must equal the sort it replaced, kept in trace_ref_test.go, over
# interleaved streams that share starts and overrun the drop cap
# (TestPhaseMergeMatchesSortReference).
trace-smoke:
	$(GO) test -run 'TestTraceSmoke|TestGoldenWorkerIndependence|TestMetricsExposition|TestRejectedKindsAddNoSeries' -count=1 -v ./internal/jobs
	$(GO) test -race -run 'TestTraceStreamStalledSubscriber|TestServeKeepsFrameDuringInitialFlush' -count=1 ./internal/obsv
	$(GO) test -run 'TestPhaseMergeMatchesSortReference' -count=1 -v ./internal/trace

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
# over HTTP, and mid-job cancellation (the heavy load tests), a job's
# event stream ending once it is done, cached or not
# (TestJobSSEStream, TestCachedJobSSEStreamEnds), server
# shutdown closing the manager and leaving no goroutines behind, plus
# the eandroid-serve daemon, plus the pinned artifact digest
# (TestFleetArtifactDigest): the SHA-256 of all 96 artifacts of 16
# fleet jobs, one per corpus cell, must equal the committed value, plus
# exact-size artifacts (TestArtifactsAreExactSize: every file of a
# traced fleet job and of a corpus job has cap == len, so the cache
# budget counts what it holds), plus the fleet's in-place telemetry
# fold: after every device it holds a map-based fold's series, bit for
# bit, and leaves each device's registry as it was
# (TestBlockFoldMatchesReference), and a warm fold allocates nothing
# (TestBlockFoldWarmAllocatesNothing), plus
# the fleet summary's row ledgers: over three fold blocks of random
# devices they render the map-based summary's bytes, kept in
# aggregate_ref_test.go, and carry its joules bit for bit
# (TestSummaryMatchesMapReference).
jobs-smoke:
	$(GO) test -race -count=1 -run 'TestLoad|TestJobSSEStream|TestCachedJobSSEStreamEnds|TestQueueCancelWhileQueued|TestServerShutdownClosesManager|TestPlaneShutdownLeavesNoGoroutines|TestFleetArtifactDigest|TestArtifactsAreExactSize' -v ./internal/jobs
	$(GO) test -race -count=1 -run 'TestBlockFoldMatchesReference|TestBlockFoldWarmAllocatesNothing|TestSummaryMatchesMapReference' -v ./internal/fleet
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

# 15-second randomized hunt over the append-based JSON writer behind
# watchdog.json and the Chrome trace encoder: for any (string, float64)
# it must write encoding/json's bytes, or fail where encoding/json does,
# and a finding's detail must write the float in whole mW as
# strconv.FormatFloat(x, 'f', 0, 64) does.
fuzz-json-short:
	$(GO) test -run NONE -fuzz FuzzJSONAppend -fuzztime 15s ./internal/obsv

clean:
	$(GO) clean ./...
