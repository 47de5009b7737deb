package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/population"
	"repro/internal/powersig"
	"repro/internal/scenario"
)

// Fleet workload sizes: enough devices per run that dispatch and fold
// matter — fleet-population spans two of the fleet's 1024-device fold
// blocks, so the block-order merge runs — few enough that a run takes
// well under a second.
const (
	popDevices = 2048
	detDevices = 256
	// detHorizon and detStealth are FleetBenchStudy's shape.
	detHorizon = 30 * time.Minute
	detStealth = 60 * time.Second
)

// devTimes records, per device, the wall time between successive laps
// of its construction and script. Each device index is written only by
// the worker running it and read after fleet.Run returns. A nil
// devTimes records nothing.
type devTimes struct {
	last  []time.Time
	spans [][]devSpan
}

type devSpan struct {
	name  string
	start time.Time
	dur   time.Duration
}

func newDevTimes(n int) *devTimes {
	return &devTimes{last: make([]time.Time, n), spans: make([][]devSpan, n)}
}

func (d *devTimes) mark(i int) {
	if d != nil {
		d.last[i] = time.Now()
	}
}

// lap records the time since device i's previous mark or lap as a span
// named name.
func (d *devTimes) lap(i int, name string) {
	if d == nil {
		return
	}
	now := time.Now()
	d.spans[i] = append(d.spans[i], devSpan{name, d.last[i], now.Sub(d.last[i])})
	d.last[i] = now
}

// popScenario is population.FleetSpec's per-device scenario with laps
// between its layer calls; the fleet summary it yields is identical.
func popScenario(p *population.Population, seed int64, i int, dev *device.Device, tm *devTimes) error {
	ci := p.Assign(seed, i)
	w, err := scenario.Populate(dev)
	if err != nil {
		return err
	}
	tm.lap(i, "scenario.populate")
	h := p.Horizon
	if h == 0 {
		h = corpus.MinHorizon
	}
	script, err := corpus.Generate(p.Cohorts[ci].Cell, corpus.ScriptSeed(seed, ci, i), corpus.Params{Horizon: h})
	if err != nil {
		return err
	}
	tm.lap(i, "corpus.generate")
	if err := script.Apply(w); err != nil {
		return err
	}
	tm.lap(i, "corpus.apply")
	return nil
}

// detScenario is FleetBenchStudy's scenario: the stealth auto-launch
// attack watched by a power-signature detector sampling every virtual
// second. The fleet then runs the device on to detHorizon.
func detScenario(i int, dev *device.Device, tm *devTimes, detector bool) error {
	w, err := scenario.Populate(dev)
	if err != nil {
		return err
	}
	tm.lap(i, "scenario.populate")
	if detector {
		det, err := powersig.NewDetector(dev.Engine, dev.Meter, dev.Packages, 0)
		if err != nil {
			return err
		}
		det.Start()
		tm.lap(i, "powersig.start")
	}
	if err := w.ForceScreenOn(); err != nil {
		return err
	}
	if err := w.StealthAutoLaunch(detStealth); err != nil {
		return err
	}
	tm.lap(i, "scenario.stealth")
	return nil
}

func detectorConfig() device.Config {
	return device.Config{EAndroid: true, Policy: accounting.BatteryStats, Checks: &check.Options{}}
}

// devLat times each device of a fleet run from its Configure hook, just
// before device.New, to its result, which the worker hands to Stream as
// soon as the device has run. Each index is written only by the worker
// running it and read after fleet.Run returns. A nil devLat records
// nothing.
type devLat struct {
	start []time.Time
	ms    []float64
}

func (d *devLat) mark(i int) {
	if d != nil {
		d.start[i] = time.Now()
	}
}

func (d *devLat) done(i int) {
	if d != nil {
		d.ms[i] = ms(time.Since(d.start[i]))
	}
}

// fleetBench runs one whole fleet per operation, on nproc workers.
type fleetBench struct {
	name    string
	devices int
	seed    int64
	pop     population.Population // fleet-population only

	render string // digest of the warm-up run's rendered summary
}

// spec builds the run's fleet.Spec. fleet-population uses
// population.FleetSpec; traced, its scenario is wrapped to lap each
// device's layer calls into tm. The Configure and Stream hooks time each
// device into tm or dl.
func (w *fleetBench) spec(tm *devTimes, dl *devLat) (fleet.Spec, error) {
	var spec fleet.Spec
	if w.name == "fleet-detector" {
		spec = fleet.Spec{
			Devices: w.devices,
			Workers: nproc(),
			Seed:    w.seed,
			Config:  detectorConfig(),
			Scenario: func(i int, dev *device.Device) error {
				tm.lap(i, "device.new")
				return detScenario(i, dev, tm, true)
			},
			Horizon: detHorizon,
		}
	} else {
		var err error
		if spec, err = w.pop.FleetSpec(w.devices, nproc(), 0, w.seed); err != nil {
			return spec, err
		}
		if tm != nil {
			spec.Scenario = func(i int, dev *device.Device) error {
				tm.lap(i, "device.new")
				return popScenario(&w.pop, w.seed, i, dev, tm)
			}
		}
	}
	if tm != nil || dl != nil {
		configure := spec.Configure
		spec.Configure = func(i int, cfg *device.Config) {
			if configure != nil {
				configure(i, cfg)
			}
			tm.mark(i)
			dl.mark(i)
		}
		spec.Stream = func(r fleet.Result) {
			tm.lap(r.Index, "sim.horizon")
			dl.done(r.Index)
		}
	}
	return spec, nil
}

// run executes one fleet and returns it with its render digest.
func (w *fleetBench) run(tm *devTimes, dl *devLat) (*fleet.FleetResult, string, error) {
	spec, err := w.spec(tm, dl)
	if err != nil {
		return nil, "", err
	}
	fr, err := fleet.Run(context.Background(), spec)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256([]byte(fr.Summary.Render(fr.Seed)))
	return fr, hex.EncodeToString(sum[:]), nil
}

func (w *fleetBench) setup() error {
	// The warm-up run fills lazy state and fixes the digest every
	// measured run must reproduce.
	fr, d, err := w.run(nil, nil)
	if err != nil {
		return err
	}
	if fr.Summary.Failed > 0 {
		return fmt.Errorf("%s: warm-up run: %d devices failed", w.name, fr.Summary.Failed)
	}
	w.render = d
	return nil
}

func (w *fleetBench) close()       {}
func (w *fleetBench) clients() int { return 1 }
func (w *fleetBench) minOps() int  { return 1 }

func (w *fleetBench) op(_, _ int, tr *tracer) opResult {
	var (
		tm *devTimes
		dl *devLat
	)
	if tr != nil {
		tm = newDevTimes(w.devices)
	} else {
		dl = &devLat{start: make([]time.Time, w.devices), ms: make([]float64, w.devices)}
	}
	t0 := time.Now()
	fr, d, err := w.run(tm, dl)
	lat := time.Since(t0)
	r := opResult{attempted: w.devices, lat: lat}
	if err != nil {
		r.failed = w.devices
		return r
	}
	if dl != nil {
		r.samples = dl.ms
	}
	r.failed = fr.Summary.Failed
	r.devices = fr.Summary.Devices - fr.Summary.Failed
	r.simHours = fr.Summary.TotalSimH
	if d != w.render {
		r.bad = w.name + ": fleet summary differs from the warm-up run's"
	}
	if tr != nil {
		traceFleet(tr, t0, lat, fr, tm)
	}
	return r
}

func (w *fleetBench) digest() string { return w.render }

// traceFleet records one fleet run in worker time: the root is wall ×
// workers, split into pool idle time and busy time, and busy time into
// each device's layer calls.
func traceFleet(tr *tracer, t0 time.Time, wall time.Duration, fr *fleet.FleetResult, tm *devTimes) {
	var busy time.Duration
	for _, ws := range fr.WorkerStats {
		busy += ws.Busy
	}
	root := tr.add("fleet.run", -1, t0, wall*time.Duration(fr.Workers))
	tr.add("fleet.pool_idle", root, t0, wall*time.Duration(fr.Workers)-busy)
	b := tr.add("fleet.busy", root, t0, busy)
	for _, spans := range tm.spans {
		for _, s := range spans {
			tr.add(s.name, b, s.start, s.dur)
		}
	}
}
