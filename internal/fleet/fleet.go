// Package fleet runs many independent device simulations concurrently.
//
// The per-device engine stays strictly single-threaded — determinism is
// the simulation's hard requirement — so the unit of parallelism is the
// whole device: one engine per goroutine, never two goroutines in one
// engine. A bounded worker pool (default GOMAXPROCS) pulls device
// indices from a queue, builds each device from the shared Config
// template, runs its scenario plus horizon, and harvests a Result
// labelled with a per-device seed derived from the fleet seed via
// sim.SplitMix64.
//
// Execution is streaming and memory-bounded: finished devices fold into
// a block-locked accumulator (see accum.go) and are dropped, with a
// dispatch-permit window bounding how many results can be in flight or
// parked at once. Spec.Stream hands every Result to a caller-owned sink
// exactly once; a caller that needs per-device results keeps them
// there. Aggregation is order-stable — the fold tree is fixed by the
// fleet size — so the merged summary and metrics are byte-identical for
// any worker count.
package fleet

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Spec describes one fleet run: N devices built from a common template,
// each scripted by Scenario and advanced to Horizon.
type Spec struct {
	// Devices is the fleet size. Must be at least 1.
	Devices int
	// Workers bounds concurrency; zero or negative means GOMAXPROCS.
	Workers int
	// Seed is the fleet seed, from which scenarios derive their own
	// random streams, so the whole fleet is reproducible from one
	// number. Device i's Result carries DeviceSeed(Seed, i).
	Seed int64
	// Config is the device template, shared by every device.
	Config device.Config
	// Configure, when non-nil, customizes device i's config after the
	// template copy but before device construction — the population
	// layer's hardware-cohort hook. It runs on worker goroutines and
	// must be pure: the same i must always produce the same mutation.
	Configure func(i int, cfg *device.Config)
	// Scenario scripts device i. It may drive the device's virtual
	// clock itself (dev.Run) or rely on Horizon; a nil Scenario runs an
	// idle device. It must not retain dev past its return.
	Scenario func(i int, dev *device.Device) error
	// Stream, when non-nil, receives every finished Result exactly
	// once, from the worker goroutine that ran it (or the dispatcher,
	// for devices cancelled before dispatch). Delivery order is
	// scheduling-dependent — consumers needing order can index by
	// Result.Index. The Result must not be mutated: the accumulator
	// reads it after Stream returns. The fleet itself keeps no
	// per-device results, so memory stays bounded by the dispatch
	// window instead of O(Devices).
	Stream func(Result)
	// Horizon is additional virtual time to run after Scenario returns.
	Horizon time.Duration
	// Telemetry builds one recorder per device (a recorder is
	// single-goroutine, like the engine it observes), holding only what
	// the fleet reads from it: metrics, plus the kernel log on a
	// trace-sampled device, whose batch spans fold from it. Each
	// device's registry lands in Result.Metrics and their index-order
	// fold in FleetResult.Metrics, which is byte-identical across
	// worker counts.
	Telemetry bool
	// Progress, when non-nil, is called once per finished device, from
	// the worker goroutine that ran it. It MUST be safe for concurrent
	// calls (the jobs progress hook is); completion order is
	// scheduling-dependent, so treat it as a live feed, not a
	// determinism surface.
	Progress func(Progress)
	// Trace, when non-nil, threads causal span collection through the
	// run: head-sampled devices get a single-goroutine DeviceTracer
	// (wired into the device as Config.Trace), every device reports
	// its final virtual instant for the shard/job rollup, and kernel
	// dispatch batches are folded into spans from the telemetry trace
	// log after each device finishes. The assembled tree is a pure
	// function of the fleet's seed chain and per-device virtual
	// behaviour — byte-identical across worker counts.
	Trace *trace.FleetTrace
}

// Progress is one device-completion tick of a fleet run: what a
// Spec.Progress hook receives, such as the jobs service's SSE progress
// frames.
type Progress struct {
	// Index is the finished device's position in the fleet.
	Index int `json:"index"`
	// Done is how many devices have finished so far (including this
	// one); Total is the fleet size.
	Done  int `json:"done"`
	Total int `json:"total"`
	// BatteryPct and DrainedJ summarize the device's battery at harvest.
	BatteryPct float64 `json:"battery_pct"`
	DrainedJ   float64 `json:"drained_j"`
	// Attacks counts the monitor's recorded attacks (zero when the
	// monitor is off); Violations counts invariant violations.
	Attacks    int `json:"attacks"`
	Violations int `json:"violations"`
	// Failed reports a device that ended in error; Err carries its text.
	Failed bool   `json:"failed"`
	Err    string `json:"err,omitempty"`
}

// Result is the harvest of one device's run. The standard energy and
// attack summaries are always populated on success; a scenario keeps
// anything else it needs itself, in a slice indexed by device.
type Result struct {
	// Index is the device's position in the fleet, 0-based.
	Index int
	// Seed is the device's derived seed, DeviceSeed(Spec.Seed, Index).
	Seed int64
	// Err is non-nil when the device failed: build error, scenario
	// error, captured panic, or context cancellation. All other fields
	// except Index and Seed are zero when Err is set.
	Err error

	// SimEnd is the device's virtual clock at harvest time.
	SimEnd sim.Time
	// DrainedJ is total battery energy drained.
	DrainedJ float64
	// BatteryPct is the remaining charge percentage.
	BatteryPct float64
	// Energy is the baseline accountant's ledger, one row per UID
	// (including the screen and system pseudo-UIDs), in ascending UID
	// order.
	Energy []LedgerRow
	// Collateral is E-Android's collateral energy per driving app, one
	// row per app that drove a recorded attack, in ascending UID order;
	// nil unless the monitor recorded an attack.
	Collateral []LedgerRow
	// AttacksByVector counts the monitor's recorded attacks per vector;
	// nil unless the monitor recorded an attack.
	AttacksByVector map[core.Vector]int
	// Attacks is the total attack count.
	Attacks int
	// Detected reports whether the monitor recorded at least one
	// attack on this device.
	Detected bool
	// Violations holds the device's runtime invariant violations; nil
	// unless the device template enables Config.Checks (or the
	// EANDROID_CHECK environment variable does) and something broke.
	Violations []check.Violation
	// Metrics is the device's own telemetry registry, handed over once
	// the device has finished: nothing writes it afterwards, and the
	// fleet's fold only reads it. Nil unless Spec.Telemetry was set and
	// the device succeeded.
	Metrics *telemetry.Metrics
}

// LedgerRow is one UID's energy in a device's ledger, with the UID's
// human-readable label on that device.
type LedgerRow struct {
	UID   app.UID
	J     float64
	Label string
}

// FleetResult is a completed fleet run: the merged summary. Per-device
// results reach callers only through Spec.Stream.
type FleetResult struct {
	Seed    int64
	Workers int
	Summary Summary
	// Metrics folds the per-device registries in device-index order;
	// nil unless Spec.Telemetry was set. Byte-identical across worker
	// counts (unlike WorkerStats, which measures the pool itself).
	Metrics *telemetry.Metrics
	// WorkerStats reports per-worker utilization of this run. It is
	// wall-clock measured and scheduling-dependent, hence deliberately
	// excluded from Metrics and Render, which are determinism-gated.
	WorkerStats []WorkerStat
}

// WorkerStat is one pool worker's share of a fleet run.
type WorkerStat struct {
	// Worker is the worker's index in the pool.
	Worker int
	// Devices is how many devices the worker ran.
	Devices int
	// Busy is wall-clock time spent running devices.
	Busy time.Duration
	// Utilization is Busy over the pool's total wall time, in [0, 1].
	Utilization float64
}

// panicError preserves a captured scenario panic, including its stack,
// without tearing down the rest of the fleet.
type panicError struct {
	index int
	value any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("fleet: device %d panicked: %v\n%s", p.index, p.value, p.stack)
}

// DeviceSeed derives device i's seed, the label its Result and the
// fleet render carry, from the fleet seed. The derivation is pure, so
// the label does not depend on which other devices run.
func DeviceSeed(fleetSeed int64, i int) int64 {
	return int64(sim.SplitMix64(uint64(fleetSeed) + uint64(i)*0x9e3779b97f4a7c15))
}

// Run executes the fleet described by spec. Per-device failures (errors
// or panics) are captured in the matching Result.Err and never abort
// the rest of the fleet; Run itself returns an error only for an
// invalid spec. Cancelling ctx stops dispatching new devices and halts
// in-flight horizon runs at their next check; affected devices report
// ctx's error and still emit their Progress/Stream ticks, so a
// live feed always reaches Done == Total.
func Run(ctx context.Context, spec Spec) (*FleetResult, error) {
	if spec.Devices < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 device, got %d", spec.Devices)
	}
	if spec.Horizon < 0 {
		return nil, fmt.Errorf("fleet: negative horizon %v", spec.Horizon)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Devices {
		workers = spec.Devices
	}
	// The dispatch window bounds how many dispatched devices may be
	// unfolded (in flight or parked out of order) at once: the
	// streaming path's memory high-water mark.
	f := newFolder(&spec, max(4*workers, 8))
	stats := make([]WorkerStat, workers)
	var done atomic.Int64
	poolStart := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w].Worker = w
			// One event arena per worker: devices on this goroutine run
			// strictly sequentially, so each reuses its predecessor's
			// kernel Event allocations instead of growing a fresh heap
			// for the GC to sweep — the cross-worker GC pressure that
			// serialized high worker counts.
			pool := sim.NewEventPool()
			for i := range jobs {
				start := time.Now()
				res := runDevice(ctx, spec, i, pool)
				stats[w].Busy += time.Since(start)
				stats[w].Devices++
				if spec.Stream != nil {
					spec.Stream(res)
				}
				f.complete(i, res, true)
				notifyProgress(&spec, &res, int(done.Add(1)))
			}
		}(w)
	}
dispatch:
	for i := 0; i < spec.Devices; i++ {
		// Acquire a dispatch permit first: it is released only when the
		// device's result folds, so the permit count bounds finished-
		// but-unfolded results — the streaming memory high-water mark.
		if !f.acquire(ctx.Done()) {
			cancelTail(&spec, f, &done, i, ctx.Err())
			break dispatch
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			f.unacquire() // device i was never handed to a worker
			cancelTail(&spec, f, &done, i, ctx.Err())
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if wall := time.Since(poolStart); wall > 0 {
		for w := range stats {
			stats[w].Utilization = float64(stats[w].Busy) / float64(wall)
		}
	}

	summary, metrics, err := f.finalize()
	if err != nil {
		return nil, fmt.Errorf("fleet: merge metrics: %w", err)
	}
	return &FleetResult{
		Seed:        spec.Seed,
		Workers:     workers,
		Summary:     summary,
		Metrics:     metrics,
		WorkerStats: stats,
	}, nil
}

// cancelTail marks devices [from, Devices) — never dispatched — as
// cancelled, feeding each through the same Stream/fold/Progress path a
// finished device takes. Emitting the ticks here is what lets SSE and
// jobs consumers observe the terminal Done == Total state after a
// cancellation instead of hanging at the last dispatched device.
func cancelTail(spec *Spec, f *folder, done *atomic.Int64, from int, cause error) {
	for j := from; j < spec.Devices; j++ {
		res := Result{Index: j, Seed: DeviceSeed(spec.Seed, j), Err: cause}
		if spec.Stream != nil {
			spec.Stream(res)
		}
		f.complete(j, res, false)
		notifyProgress(spec, &res, int(done.Add(1)))
	}
}

// notifyProgress feeds one finished device into the Progress hook.
// done is the completion count including this device.
func notifyProgress(spec *Spec, res *Result, done int) {
	if spec.Progress == nil {
		return
	}
	p := Progress{
		Index:      res.Index,
		Done:       done,
		Total:      spec.Devices,
		BatteryPct: res.BatteryPct,
		DrainedJ:   res.DrainedJ,
		Attacks:    res.Attacks,
		Violations: len(res.Violations),
	}
	if res.Err != nil {
		p.Failed = true
		p.Err = res.Err.Error()
	}
	spec.Progress(p)
}

// runDevice builds, scripts, runs and harvests one device, converting
// panics into errors so a bad scenario cannot take down the pool. pool
// is the calling worker's private event arena (may be nil).
func runDevice(ctx context.Context, spec Spec, i int, pool *sim.EventPool) (res Result) {
	res = Result{Index: i, Seed: DeviceSeed(spec.Seed, i)}
	defer func() {
		if r := recover(); r != nil {
			res = Result{Index: res.Index, Seed: res.Seed,
				Err: &panicError{index: i, value: r, stack: debug.Stack()}}
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}

	cfg := spec.Config
	if spec.Configure != nil {
		spec.Configure(i, &cfg)
	}
	cfg.Events = pool
	dt := spec.Trace.Device(i) // nil for unsampled indices
	cfg.Trace = dt
	if spec.Telemetry {
		// One recorder per device: recorders are single-goroutine, and
		// per-device registries are what make the folded registry
		// independent of worker scheduling.
		cfg.Telemetry = newRecorder(dt != nil)
	}
	dev, err := device.New(cfg)
	if err != nil {
		res.Err = fmt.Errorf("fleet: device %d: %w", i, err)
		return res
	}
	// Hand the device's still-queued events back to the worker's pool
	// once we are done with it — finished or failed — so the next device
	// on this worker reuses them.
	defer dev.Engine.Recycle()
	if spec.Scenario != nil {
		if err := spec.Scenario(i, dev); err != nil {
			res.Err = fmt.Errorf("fleet: device %d scenario: %w", i, err)
			return res
		}
	}
	if err := runHorizon(ctx, dev, spec.Horizon); err != nil {
		res.Err = fmt.Errorf("fleet: device %d: %w", i, err)
		return res
	}
	harvest(&res, dev)
	res.Violations = dev.FinishChecks()
	if dev.Telemetry != nil {
		res.Metrics = dev.Telemetry.Metrics()
	}
	if spec.Trace != nil {
		// Fold same-instant kernel dispatch runs from the kernel trace
		// log into batch spans. The fold lives here — not in the trace
		// package — so trace never imports telemetry. Counting the
		// batches first lets the tracer hold them in one allocation;
		// the log then goes back for the next traced device.
		if dt != nil && dev.Telemetry != nil {
			n := 0
			dev.Telemetry.ForEachKernelBatch(func(telemetry.KernelBatch) { n++ })
			dt.Reserve(trace.PhaseKernelBatch, n)
			dev.Telemetry.ForEachKernelBatch(func(b telemetry.KernelBatch) {
				dt.Phase(trace.PhaseKernelBatch, b.T, b.T, float64(b.N))
			})
			dev.Telemetry.ReleaseKernelLog()
		}
		spec.Trace.Finish(i, dt, res.SimEnd)
	}
	return res
}

// newRecorder builds a fleet device's recorder with what the fleet
// reads from it: the metrics registry always, and the kernel log only
// on a traced device. No fleet consumer reads the general event ring.
func newRecorder(traced bool) *telemetry.Recorder {
	rec := telemetry.New(telemetry.Options{EventCapacity: -1})
	if traced {
		rec.KeepKernelLog()
	}
	return rec
}

// horizonChecks is how many times a horizon run polls for cancellation.
// Running to an absolute target in slices is behaviour-identical to one
// RunUntil call — the event stream is untouched — so chunking costs
// nothing in determinism.
const horizonChecks = 32

func runHorizon(ctx context.Context, dev *device.Device, horizon time.Duration) error {
	if horizon <= 0 {
		return nil
	}
	target := dev.Engine.Now().Add(horizon)
	chunk := horizon / horizonChecks
	for dev.Engine.Now().Before(target) {
		if err := ctx.Err(); err != nil {
			return err
		}
		next := dev.Engine.Now().Add(chunk)
		if chunk <= 0 || next.After(target) {
			next = target
		}
		if err := dev.Engine.RunUntil(next); err != nil {
			return err
		}
	}
	return nil
}

// harvest reads the device's ledgers into res. It flushes first, so the
// numbers are settled up to the device's current instant.
func harvest(res *Result, dev *device.Device) {
	dev.Flush()
	res.SimEnd = dev.Engine.Now()
	res.DrainedJ = dev.Battery.DrainedJ()
	res.BatteryPct = dev.Battery.Percent()
	entries := dev.Android.Entries()
	res.Energy = make([]LedgerRow, len(entries))
	for i, e := range entries {
		res.Energy[i] = LedgerRow{UID: e.UID, J: e.TotalJ, Label: dev.Packages.Label(e.UID)}
	}
	slices.SortFunc(res.Energy, compareUID)
	if dev.EAndroid == nil {
		return
	}
	attacks := dev.EAndroid.Attacks()
	if len(attacks) == 0 {
		return
	}
	res.Attacks = len(attacks)
	res.Detected = true
	res.AttacksByVector = make(map[core.Vector]int)
	for _, a := range attacks {
		res.AttacksByVector[a.Vector]++
		row := LedgerRow{UID: a.Driving}
		if i, found := slices.BinarySearchFunc(res.Collateral, row, compareUID); !found {
			res.Collateral = slices.Insert(res.Collateral, i, row)
		}
	}
	for i := range res.Collateral {
		r := &res.Collateral[i]
		r.J = dev.EAndroid.CollateralJ(r.UID)
		r.Label = dev.Packages.Label(r.UID)
	}
}

func compareUID(a, b LedgerRow) int { return cmp.Compare(a.UID, b.UID) }
