package fleet

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// attackSpec is the canonical test fleet: every device installs the
// demo cast and mounts the service-pin attack, so the monitor has real
// collateral energy and attacks to aggregate.
func attackSpec(devices, workers int, seed int64) Spec {
	return Spec{
		Devices: devices,
		Workers: workers,
		Seed:    seed,
		Config:  device.Config{EAndroid: true},
		Scenario: func(i int, dev *device.Device) error {
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.Attack3ServicePin(10 * time.Second)
		},
		Horizon: 5 * time.Second,
	}
}

// runCollect runs spec under ctx, keeping every device's Result with
// Collect, and fails the test unless each device's Result reached the
// sink exactly once: a device the sink missed would read as a zero
// Result.
func runCollect(t *testing.T, ctx context.Context, spec Spec) (*FleetResult, []Result) {
	t.Helper()
	results := Collect(&spec)
	keep := spec.Stream
	var delivered atomic.Int64
	spec.Stream = func(r Result) { keep(r); delivered.Add(1) }
	fr, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := delivered.Load(); n != int64(spec.Devices) {
		t.Fatalf("stream sink saw %d results, want %d", n, spec.Devices)
	}
	for i, r := range results {
		if want := DeviceSeed(spec.Seed, i); r.Index != i || r.Seed != want {
			t.Fatalf("results[%d] holds device %d seed %d, want device %d seed %d", i, r.Index, r.Seed, i, want)
		}
	}
	return fr, results
}

func TestRunRejectsBadSpec(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Devices: 0}); err == nil {
		t.Fatal("expected error for zero devices")
	}
	if _, err := Run(context.Background(), Spec{Devices: 1, Horizon: -time.Second}); err == nil {
		t.Fatal("expected error for negative horizon")
	}
}

func TestFleetRunsEveryDevice(t *testing.T) {
	spec := attackSpec(6, 3, 42)
	fr, results := runCollect(t, context.Background(), spec)
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("results not index-ordered: results[%d].Index = %d", i, r.Index)
		}
		if r.Err != nil {
			t.Fatalf("device %d failed: %v", i, r.Err)
		}
		if r.Seed != DeviceSeed(42, i) {
			t.Fatalf("device %d seed = %d, want %d", i, r.Seed, DeviceSeed(42, i))
		}
		if r.DrainedJ <= 0 {
			t.Fatalf("device %d drained %v J, want > 0", i, r.DrainedJ)
		}
		if !r.Detected || r.AttacksByVector[core.VectorServiceBind] == 0 {
			t.Fatalf("device %d: service-bind attack not recorded: %+v", i, r.AttacksByVector)
		}
	}
	s := fr.Summary
	if s.Failed != 0 || s.Devices != 6 {
		t.Fatalf("summary outcome = %d/%d", s.Devices-s.Failed, s.Devices)
	}
	if s.DetectionRate() != 1 {
		t.Fatalf("detection rate = %v, want 1", s.DetectionRate())
	}
	if s.AttacksByVector[core.VectorServiceBind] != 6 {
		t.Fatalf("merged service-bind count = %d, want 6", s.AttacksByVector[core.VectorServiceBind])
	}
	if s.TotalDrainedJ <= 0 {
		t.Fatal("summary drained nothing")
	}
}

func TestDeviceSeedsDifferAndAreStable(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := DeviceSeed(7, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between device %d and %d", prev, i)
		}
		seen[s] = i
		if s != DeviceSeed(7, i) {
			t.Fatal("DeviceSeed is not pure")
		}
	}
	if DeviceSeed(7, 0) == DeviceSeed(8, 0) {
		t.Fatal("different fleet seeds produced the same device seed")
	}
}

// The acceptance gate: the rendered aggregate and every device's line
// must be byte-identical for any worker count, because per-device seeds
// depend only on the fleet seed and the accumulator's fold tree is
// fixed by the fleet size.
func TestAggregateByteIdenticalAcrossWorkerCounts(t *testing.T) {
	var golden string
	for _, workers := range []int{1, 4, 8} {
		fr, results := runCollect(t, context.Background(), attackSpec(9, workers, 1234))
		got := fr.Render() + RenderDevices(results)
		if golden == "" {
			golden = got
			continue
		}
		if got != golden {
			t.Fatalf("aggregate differs at workers=%d:\n--- golden ---\n%s\n--- got ---\n%s",
				workers, golden, got)
		}
	}
}

// The streaming acceptance gate: at every worker count the folded
// summary must render byte-identically to the reference fold
// (summarize) over the results the Stream sink kept and to the
// single-worker run, and the sink must see every device exactly once.
func TestStreamingMatchesRetainedAcrossWorkerCounts(t *testing.T) {
	var golden string
	for _, workers := range []int{1, 8} {
		fr, kept := runCollect(t, context.Background(), attackSpec(9, workers, 1234))
		for _, r := range kept {
			if r.Err != nil || r.DrainedJ <= 0 {
				t.Fatalf("device %d at workers=%d: err %v, drained %v J", r.Index, workers, r.Err, r.DrainedJ)
			}
		}
		got := fr.Summary.Render(fr.Seed)
		ref := summarize(kept)
		if want := ref.Render(fr.Seed); got != want {
			t.Fatalf("streaming summary differs from the fold of the kept results at workers=%d:\n--- kept ---\n%s\n--- got ---\n%s",
				workers, want, got)
		}
		if golden == "" {
			golden = got
		} else if got != golden {
			t.Fatalf("streaming summary differs at workers=%d:\n--- golden ---\n%s\n--- got ---\n%s",
				workers, golden, got)
		}
	}
}

// Multi-block determinism: a fleet wider than one fold block (1024
// devices) must still merge byte-identically across worker counts, with
// out-of-order completions parking in the pending maps. Runs under
// -race in CI, where its two blocks fold concurrently under their two
// locks alongside the Stream sink.
func TestStreamingMultiBlockByteIdentical(t *testing.T) {
	const devices = blockSize + 137
	build := func(workers int) Spec {
		return Spec{
			Devices: devices,
			Workers: workers,
			Seed:    99,
			Scenario: func(i int, dev *device.Device) error {
				w, err := scenario.Populate(dev)
				if err != nil {
					return err
				}
				if i%3 == 0 {
					return w.ForceScreenOn()
				}
				return nil
			},
			Horizon: 2 * time.Second,
		}
	}
	var golden string
	var outOfOrder atomic.Int64
	for _, workers := range []int{1, 8} {
		spec := build(workers)
		var last atomic.Int64
		last.Store(-1)
		spec.Stream = func(r Result) {
			// Record scheduling-dependent out-of-order delivery: the
			// whole point of the fold tree is that it cannot leak into
			// the summary.
			if prev := last.Swap(int64(r.Index)); int64(r.Index) < prev {
				outOfOrder.Add(1)
			}
		}
		fr, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Summary.Devices != devices || fr.Summary.Failed != 0 {
			t.Fatalf("outcome %d/%d", fr.Summary.Devices-fr.Summary.Failed, fr.Summary.Devices)
		}
		if fr.Summary.TotalSimH <= 0 {
			t.Fatal("TotalSimH not accumulated")
		}
		got := fr.Summary.Render(fr.Seed)
		if golden == "" {
			golden = got
			continue
		}
		if got != golden {
			t.Fatalf("multi-block summary differs at workers=%d", workers)
		}
	}
	// Delivery order is scheduling-dependent, so the count is not
	// asserted — the gate is that it cannot leak into the summary.
	t.Logf("out-of-order stream deliveries observed: %d", outOfOrder.Load())
}

// Regression for the cancellation feed bug: cancelled and undispatched
// devices must still emit Progress ticks, so a live consumer (obsv
// /fleet SSE, jobs status) observes the terminal Done == Total state.
func TestCancellationProgressReachesTotal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ticks, maxDone atomic.Int64
	spec := Spec{
		Devices: 64,
		Workers: 2,
		Seed:    3,
		Scenario: func(i int, dev *device.Device) error {
			if i == 0 {
				cancel()
			}
			return nil
		},
		Horizon: time.Hour,
		Progress: func(p Progress) {
			ticks.Add(1)
			for {
				cur := maxDone.Load()
				if int64(p.Done) <= cur || maxDone.CompareAndSwap(cur, int64(p.Done)) {
					break
				}
			}
		},
	}
	fr, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := ticks.Load(); got != 64 {
		t.Fatalf("progress ticks = %d, want one per device (64)", got)
	}
	if got := maxDone.Load(); got != 64 {
		t.Fatalf("max Done = %d, want Total (64): cancelled devices missing from the feed", got)
	}
	if fr.Summary.Devices != 64 {
		t.Fatalf("summary devices = %d, want 64", fr.Summary.Devices)
	}
	if fr.Summary.Failed == 0 || len(fr.Summary.Failures) == 0 {
		t.Fatal("cancellation produced no sampled failures")
	}
}

// The dispatch-permit window must bound how many devices can be
// dispatched while nothing folds. With the block head stalled until the
// other permitted devices have finished, and then for long enough that
// an unbounded dispatcher would start more, exactly the window of
// max(4×workers, 8) devices may have started: 8 at 2 workers.
func TestMaxPendingBoundsDispatch(t *testing.T) {
	const window, devices = 8, 32
	var started, startedWhileStalled atomic.Int64
	finished := make(chan struct{}, devices) // one send per device
	spec := Spec{
		Devices: devices,
		Workers: 2,
		Seed:    7,
		Scenario: func(i int, dev *device.Device) error {
			started.Add(1)
			if i != 0 {
				finished <- struct{}{}
				return nil
			}
			// Stall the block head, so nothing can fold, until the rest
			// of the window has finished; the timeout only keeps a
			// smaller window from hanging the test.
			timeout := time.After(5 * time.Second)
		stall:
			for k := 1; k < window; k++ {
				select {
				case <-finished:
				case <-timeout:
					break stall
				}
			}
			// Give an unbounded dispatcher time to start more devices.
			time.Sleep(100 * time.Millisecond)
			startedWhileStalled.Store(started.Load())
			return nil
		},
	}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if got := startedWhileStalled.Load(); got != window {
		t.Fatalf("%d devices started while the fold was stalled, want the window (%d)", got, window)
	}
	if got := started.Load(); got != devices {
		t.Fatalf("started = %d, want %d", got, devices)
	}
}

func TestScenarioErrorIsIsolated(t *testing.T) {
	boom := errors.New("boom")
	spec := attackSpec(4, 2, 9)
	inner := spec.Scenario
	spec.Scenario = func(i int, dev *device.Device) error {
		if i == 2 {
			return boom
		}
		return inner(i, dev)
	}
	fr, results := runCollect(t, context.Background(), spec)
	if results[2].Err == nil || !errors.Is(results[2].Err, boom) {
		t.Fatalf("device 2 err = %v, want boom", results[2].Err)
	}
	if fr.Summary.Failed != 1 {
		t.Fatalf("failed = %d, want 1", fr.Summary.Failed)
	}
	for _, i := range []int{0, 1, 3} {
		if results[i].Err != nil {
			t.Fatalf("healthy device %d infected by failure: %v", i, results[i].Err)
		}
	}
}

func TestPanicIsCapturedPerDevice(t *testing.T) {
	spec := telemetrySpec(3, 3, 5)
	inner := spec.Scenario
	spec.Scenario = func(i int, dev *device.Device) error {
		if i == 1 {
			panic("scripted panic")
		}
		return inner(i, dev)
	}
	fr, results := runCollect(t, context.Background(), spec)
	got := results[1].Err
	if got == nil || !strings.Contains(got.Error(), "scripted panic") {
		t.Fatalf("device 1 err = %v, want captured panic", got)
	}
	if !strings.Contains(got.Error(), "fleet_test.go") {
		t.Fatalf("panic error lost its stack: %v", got)
	}
	if fr.Summary.Failed != 1 {
		t.Fatalf("failed = %d, want 1", fr.Summary.Failed)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatal("panic leaked into sibling devices")
	}
	// The merge still covers the healthy devices.
	if fr.Metrics == nil || len(fr.Metrics.Counters()) == 0 {
		t.Fatal("healthy devices' metrics lost after a sibling panic")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	spec := Spec{
		Devices: 64,
		Workers: 2,
		Seed:    3,
		Scenario: func(i int, dev *device.Device) error {
			started <- struct{}{}
			if i == 0 {
				cancel()
			}
			return nil
		},
		Horizon: time.Hour, // long horizon: cancellation must interrupt it
	}
	fr, results := runCollect(t, ctx, spec)
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no device observed the cancellation")
	}
	if fr.Summary.Failed != cancelled {
		t.Fatalf("summary failed = %d, want %d", fr.Summary.Failed, cancelled)
	}
}

func TestNilScenarioIdleFleet(t *testing.T) {
	spec := Spec{Devices: 2, Seed: 1, Horizon: time.Second}
	_, results := runCollect(t, context.Background(), spec)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.SimEnd != 0 && r.SimEnd.Seconds() != 1 {
			t.Fatalf("idle device clock = %v", r.SimEnd)
		}
	}
}

// telemetrySpec is attackSpec plus one recorder per device.
func telemetrySpec(devices, workers int, seed int64) Spec {
	spec := attackSpec(devices, workers, seed)
	spec.Telemetry = true
	return spec
}

// The telemetry acceptance gate: the folded registry must be identical
// for any worker count, because each device gets its own recorder and
// the fold runs in device-index order. The horizon runs
// past the scripted attack (which ends at 10 s), so kernel events fire
// and the merged kernel counter is nonzero.
func TestMetricsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	var golden *telemetry.Metrics
	for _, workers := range []int{1, 8} {
		spec := telemetrySpec(8, workers, 77)
		spec.Horizon = time.Minute
		fr, results := runCollect(t, context.Background(), spec)
		if fr.Metrics == nil {
			t.Fatal("fleet metrics registry missing")
		}
		for i, r := range results {
			if r.Metrics == nil {
				t.Fatalf("device %d metrics registry missing", i)
			}
		}
		got := fr.Metrics
		var fired float64
		for _, c := range got.Counters() {
			if c.Name() == "sim.events_fired" {
				fired = c.Value()
			}
		}
		if fired == 0 {
			t.Fatalf("folded registry has no sim.events_fired count: %+v", got.Counters())
		}
		if golden == nil {
			golden = got
			continue
		}
		if !reflect.DeepEqual(got, golden) {
			t.Fatalf("metrics differ between workers=1 and workers=%d:\n--- golden ---\n%+v\n--- got ---\n%+v",
				workers, golden, got)
		}
	}
}

func TestNoTelemetryMeansNoSnapshots(t *testing.T) {
	spec := attackSpec(2, 2, 3)
	fr, results := runCollect(t, context.Background(), spec)
	if fr.Metrics != nil {
		t.Fatal("fleet built a metrics registry without Spec.Telemetry")
	}
	for i, r := range results {
		if r.Metrics != nil {
			t.Fatalf("device %d has a metrics registry without Spec.Telemetry", i)
		}
	}
}

// A panic raised mid-run on a traced device — from a kernel event, where
// engine-side tracing hooks fire — must follow the same policy as a
// panicking scenario: the run surfaces it, the fleet marks only that
// device failed, and the healthy devices' metrics and trace spans
// survive.
func TestTracerPanicMarksDeviceFailed(t *testing.T) {
	spec := telemetrySpec(3, 3, 13)
	tr := trace.New("tracer-panic", "request", trace.Config{SampleRate: 1})
	spec.Trace = tr.Fleet(spec.Devices)
	inner := spec.Scenario
	spec.Scenario = func(i int, dev *device.Device) error {
		if err := inner(i, dev); err != nil {
			return err
		}
		if i == 1 {
			// The attack scenario mutates state synchronously, so give
			// the run a kernel event to panic in inside the horizon.
			dev.Engine.After(time.Second, "bait", func() { panic("tracer boom") })
		}
		return nil
	}
	fr, results := runCollect(t, context.Background(), spec)
	var pe *panicError
	if results[1].Err == nil || !errors.As(results[1].Err, &pe) {
		t.Fatalf("device 1 err = %v, want *panicError", results[1].Err)
	}
	if !strings.Contains(pe.Error(), "tracer boom") {
		t.Fatalf("panic error lost its value: %v", pe)
	}
	if fr.Summary.Failed != 1 {
		t.Fatalf("failed = %d, want 1", fr.Summary.Failed)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatal("tracer panic leaked into sibling devices")
	}
	// The merge still covers the healthy devices.
	if fr.Metrics == nil || len(fr.Metrics.Counters()) == 0 {
		t.Fatal("healthy devices' metrics lost after a sibling tracer panic")
	}
	traced := map[int]bool{}
	for _, sp := range tr.Spans() {
		if sp.Kind == trace.KindDevice {
			traced[sp.Dev] = true
		}
	}
	if !traced[0] || !traced[2] {
		t.Fatalf("healthy devices' trace spans lost after a sibling panic: traced = %v", traced)
	}
}

func TestWorkerStatsCoverFleet(t *testing.T) {
	fr, err := Run(context.Background(), telemetrySpec(6, 3, 21))
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.WorkerStats) != 3 {
		t.Fatalf("worker stats = %d entries, want 3", len(fr.WorkerStats))
	}
	devices := 0
	for i, ws := range fr.WorkerStats {
		if ws.Worker != i {
			t.Fatalf("stats[%d].Worker = %d", i, ws.Worker)
		}
		if ws.Utilization < 0 || ws.Utilization > 1 {
			t.Fatalf("worker %d utilization = %v, want [0,1]", i, ws.Utilization)
		}
		devices += ws.Devices
	}
	if devices != 6 {
		t.Fatalf("worker device counts sum to %d, want 6", devices)
	}
}

// TestRecorderKeepsWhatTheFleetReads: an untraced device's recorder
// keeps metrics only, so its registry has no ring series; a traced
// device's keeps the kernel log its batch spans fold from, reports that
// log's capacity, and counts as dropped exactly the firings its spans
// could not see.
func TestRecorderKeepsWhatTheFleetReads(t *testing.T) {
	spec := telemetrySpec(8, 2, 5)
	inner := spec.Scenario
	spec.Scenario = func(i int, dev *device.Device) error {
		// A 1 Hz tick fires enough kernel events in the horizon to
		// overflow a traced device's log.
		dev.Engine.Every(time.Second, "tick", func() {})
		return inner(i, dev)
	}
	spec.Horizon = 2 * time.Hour
	tr := trace.New("ring-per-reader", "request", trace.Config{SampleRate: 2})
	spec.Trace = tr.Fleet(spec.Devices)
	_, results := runCollect(t, context.Background(), spec)
	traced := map[int]bool{}
	covered := map[int]float64{} // firings a device's batch spans cover
	for _, sp := range tr.Spans() {
		switch {
		case sp.Kind == trace.KindDevice:
			traced[sp.Dev] = true
		case sp.Kind == trace.KindPhase && sp.Name == trace.PhaseKernelBatch.String():
			covered[sp.Dev] += sp.N
		}
	}
	if len(traced) == 0 || len(traced) == spec.Devices {
		t.Fatalf("%d of %d devices traced; the test needs both kinds", len(traced), spec.Devices)
	}
	overflowed := false
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("device %d: %v", i, r.Err)
		}
		var fired, capacity, dropped float64
		var rings int
		for _, c := range r.Metrics.Counters() {
			if c.Name() == "sim.events_fired" {
				fired = c.Value()
			}
		}
		for _, g := range r.Metrics.Gauges() {
			switch g.Name() {
			case "telemetry.ring_capacity":
				capacity, rings = g.Value(), rings+1
			case "telemetry.events_dropped":
				dropped, rings = g.Value(), rings+1
			}
		}
		if !traced[i] {
			if rings != 0 {
				t.Fatalf("untraced device %d reports %d ring series", i, rings)
			}
			continue
		}
		if rings != 2 || capacity != telemetry.DefaultEventCapacity {
			t.Fatalf("traced device %d: %d ring series, capacity %v, want 2 and %d",
				i, rings, capacity, telemetry.DefaultEventCapacity)
		}
		if want := max(0, fired-capacity); dropped != want || covered[i] != fired-dropped {
			t.Fatalf("traced device %d: %v fired, %v dropped (want %v), spans cover %v",
				i, fired, dropped, want, covered[i])
		}
		overflowed = overflowed || dropped > 0
	}
	if !overflowed {
		t.Fatal("no traced device overflowed its kernel log")
	}
}

// TestUntracedRecorderAllocatesLittle pins what an untraced device's
// recorder costs to build: a metrics registry, not the 557 KB of event
// ring, sequence array and kernel log a full recorder allocates.
func TestUntracedRecorderAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := newRecorder(false)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rec)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Fatalf("untraced recorder allocated %d bytes, want < 16 KiB", got)
	}
}
