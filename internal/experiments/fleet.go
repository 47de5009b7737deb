package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/powersig"
	"repro/internal/scenario"
)

// Fleet-backed variants of the drain and stealth studies: the same
// scripted scenarios, but run as N independent devices on a worker
// pool. Each device gets its own derived seed, so the fleet models a
// small population rather than one handset repeated.

// runStudy runs spec, keeping every device's Result with
// fleet.Collect.
func runStudy(spec fleet.Spec) (*fleet.FleetResult, []fleet.Result, error) {
	results := fleet.Collect(&spec)
	fr, err := fleet.Run(context.Background(), spec)
	return fr, results, err
}

// FleetStealthStudy runs the §V stealth auto-launch attack on a fleet
// of `devices` devices using `workers` workers (0 = GOMAXPROCS). It
// returns the fleet run and every device's Result, indexed by device.
func FleetStealthStudy(devices, workers int, seed int64) (*fleet.FleetResult, []fleet.Result, error) {
	return runStudy(fleet.Spec{
		Devices: devices,
		Workers: workers,
		Seed:    seed,
		Config:  worldCfg(accounting.BatteryStats),
		Scenario: func(i int, dev *device.Device) error {
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.StealthAutoLaunch(60 * time.Second)
		},
	})
}

// FleetBenchStudy is the scaling benchmark workload: the stealth
// attack plus a power-signature detector sampling every virtual second
// over a long window, so each device carries enough event load
// (~thousands of fired events) for worker-pool speedup to be
// measurable. Used by `benchsuite -fleet` and BenchmarkFleet*. It runs
// the streaming path (no per-device retention), so its bytes/device
// measurement is the memory budget BENCH_fleet.json commits to.
func FleetBenchStudy(devices, workers int, seed int64) (*fleet.FleetResult, error) {
	return fleet.Run(context.Background(), fleet.Spec{
		Devices: devices,
		Workers: workers,
		Seed:    seed,
		Config:  worldCfg(accounting.BatteryStats),
		Scenario: func(i int, dev *device.Device) error {
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			det, err := powersig.NewDetector(dev.Engine, dev.Meter, dev.Packages, 0)
			if err != nil {
				return err
			}
			det.Start()
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.StealthAutoLaunch(60 * time.Second)
		},
		Horizon: 30 * time.Minute,
	})
}

// FleetDrainResult is the bounded-window drain study: every Figure 3
// configuration replicated across a fleet, reporting mean drain per
// configuration over the window instead of running each battery to
// zero.
type FleetDrainResult struct {
	Window   time.Duration
	Replicas int
	Fleet    *fleet.FleetResult
	// Devices holds every device's Result, indexed by device.
	Devices []fleet.Result
	// MeanJ maps config name to mean drained joules over the window,
	// in DrainConfigs order.
	MeanJ map[string]float64
}

// Render prints the per-configuration means plus the fleet report.
func (r *FleetDrainResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Fleet drain study: %d replicas/config, %v window ===\n", r.Replicas, r.Window)
	for _, name := range DrainConfigs() {
		fmt.Fprintf(&b, "%-16s mean drain %10.3f J\n", name, r.MeanJ[name])
	}
	b.WriteString(r.Fleet.Summary.Render(r.Fleet.Seed))
	b.WriteString(fleet.RenderDevices(r.Devices))
	return b.String()
}

// FleetDrainStudy runs every drain configuration on `replicas` devices
// each for a fixed virtual window. Device i runs configuration
// DrainConfigs()[i % len], so the fleet interleaves configurations and
// any worker count covers all of them.
func FleetDrainStudy(replicas, workers int, seed int64, window time.Duration) (*FleetDrainResult, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("experiments: need at least 1 replica, got %d", replicas)
	}
	if window <= 0 {
		return nil, fmt.Errorf("experiments: non-positive window %v", window)
	}
	configs := DrainConfigs()
	fr, results, err := runStudy(fleet.Spec{
		Devices: replicas * len(configs),
		Workers: workers,
		Seed:    seed,
		Config:  device.Config{Policy: accounting.BatteryStats},
		Scenario: func(i int, dev *device.Device) error {
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			return applyDrainConfig(w, configs[i%len(configs)])
		},
		Horizon: window,
	})
	if err != nil {
		return nil, err
	}
	res := &FleetDrainResult{
		Window:   window,
		Replicas: replicas,
		Fleet:    fr,
		Devices:  results,
		MeanJ:    make(map[string]float64),
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("experiments: fleet drain device %d: %w", r.Index, r.Err)
		}
		res.MeanJ[configs[r.Index%len(configs)]] += r.DrainedJ / float64(replicas)
	}
	return res, nil
}

// Fig3WithStepWorkers is Fig3WithStep with the five configurations
// sweeping concurrently on a fleet worker pool. Each full depletion
// sweep stays single-threaded inside its own device; only distinct
// configurations run in parallel. Every device is checked under
// checks: with FailFast, a violation, also one the end-of-run checks
// find, fails its sweep and becomes the error returned here.
func Fig3WithStepWorkers(step time.Duration, workers int, checks *check.Options) (*Fig3Result, error) {
	if step <= 0 {
		return nil, fmt.Errorf("experiments: non-positive step %v", step)
	}
	configs := DrainConfigs()
	curves := make([]DrainCurve, len(configs))
	fr, err := fleet.Run(context.Background(), fleet.Spec{
		Devices: len(configs),
		Workers: workers,
		Config:  device.Config{Policy: accounting.BatteryStats, Checks: checks},
		Scenario: func(i int, dev *device.Device) error {
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			// Workers own disjoint indices, so writing curves[i] here
			// is race-free.
			curves[i], err = drainCurveOn(w, configs[i], step)
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	// Streaming run: failures surface through the summary's sample, not
	// a retained result slice.
	for _, f := range fr.Summary.Failures {
		return nil, fmt.Errorf("experiments: drain %s: %s", configs[f.Index], f.Err)
	}
	return &Fig3Result{Curves: curves}, nil
}

// ExtFleetResult bundles the two fleet-backed studies for the registry.
type ExtFleetResult struct {
	Stealth        *fleet.FleetResult
	StealthDevices []fleet.Result
	Drain          *FleetDrainResult
}

// Render prints both fleet reports.
func (r *ExtFleetResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Extension: fleet-parallel studies ===\n")
	b.WriteString("--- stealth auto-launch fleet ---\n")
	b.WriteString(r.Stealth.Summary.Render(r.Stealth.Seed))
	b.WriteString(fleet.RenderDevices(r.StealthDevices))
	b.WriteString("--- bounded-window drain fleet ---\n")
	b.WriteString(r.Drain.Render())
	return b.String()
}

// ExtFleet runs small fleets of the stealth and drain studies.
func ExtFleet() (*ExtFleetResult, error) {
	st, stDevices, err := FleetStealthStudy(8, 0, 42)
	if err != nil {
		return nil, err
	}
	for _, r := range stDevices {
		if r.Err != nil {
			return nil, fmt.Errorf("experiments: fleet stealth device %d: %w", r.Index, r.Err)
		}
	}
	dr, err := FleetDrainStudy(2, 0, 42, 5*time.Minute)
	if err != nil {
		return nil, err
	}
	return &ExtFleetResult{Stealth: st, StealthDevices: stDevices, Drain: dr}, nil
}
