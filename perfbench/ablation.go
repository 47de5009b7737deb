package main

import (
	"fmt"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/jobs"
	"repro/internal/obsv"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// layers selects what is attached to an ablation device. Each ablation
// chain starts from a bare device (stock accounting, no checker) and
// attaches one layer per step, ending at the workload's own device, so
// the time a step adds is that layer's cost on the same seed and script.
type layers struct {
	mode      core.Mode // 0 = E-Android monitor off
	checks    bool
	detector  bool
	telemetry bool
	watchdog  bool
	flame     bool
	tracer    bool
}

type step struct {
	metric string // per-layer metric the step's added time is reported as
	attach func(*layers)
}

var (
	coreSteps = []step{
		{"core.framework_ms", func(l *layers) { l.mode = core.FrameworkOnly }},
		{"core.accounting_ms", func(l *layers) { l.mode = core.Complete }},
		{"check.checker_ms", func(l *layers) { l.checks = true }},
	}
	detectorSteps = append(coreSteps[:3:3],
		step{"powersig.detector_ms", func(l *layers) { l.detector = true }})
	jobSteps = append(coreSteps[:3:3],
		step{"telemetry.recorder_ms", func(l *layers) { l.telemetry = true }},
		step{"obsv.watchdog_ms", func(l *layers) { l.watchdog = true }},
		step{"obsv.flame_accrue_ms", func(l *layers) { l.flame = true }},
		step{"trace.device_tracer_ms", func(l *layers) { l.tracer = true }})
)

// sampler builds and drives sample device s of a workload with the
// given layers attached, lapping its layer calls into tm.
type sampler interface {
	config(s int, l layers) device.Config
	drive(s int, dev *device.Device, l layers, tm *devTimes) error
}

func baseConfig(seed int64, l layers) device.Config {
	cfg := device.Config{
		Seed:        seed,
		Policy:      accounting.BatteryStats,
		EAndroid:    l.mode != 0,
		MonitorMode: l.mode,
		Checks:      &check.Options{Disabled: !l.checks},
	}
	if l.telemetry {
		cfg.Telemetry = telemetry.New(telemetry.Options{})
	}
	return cfg
}

// popSampler replays fleet-population's device s.
type popSampler struct{ w *fleetBench }

func (p popSampler) config(s int, l layers) device.Config {
	cfg := baseConfig(fleet.DeviceSeed(p.w.seed, s), l)
	h := p.w.pop.Cohorts[p.w.pop.Assign(p.w.seed, s)].Hardware
	cfg.Profile, cfg.BatteryJ = h.Profile, h.BatteryJ
	return cfg
}

func (p popSampler) drive(s int, dev *device.Device, _ layers, tm *devTimes) error {
	return popScenario(&p.w.pop, p.w.seed, s, dev, tm)
}

// detSampler replays fleet-detector's device s.
type detSampler struct{ w *fleetBench }

func (d detSampler) config(s int, l layers) device.Config {
	return baseConfig(fleet.DeviceSeed(d.w.seed, s), l)
}

func (d detSampler) drive(s int, dev *device.Device, l layers, tm *devTimes) error {
	if err := detScenario(s, dev, tm, l.detector); err != nil {
		return err
	}
	if err := dev.Run(detHorizon); err != nil {
		return err
	}
	tm.lap(s, "sim.horizon")
	return nil
}

// jobSampler replays device 0 of jobs-cold's job s, with the observers
// the jobs service attaches to every device.
type jobSampler struct{ w *jobsCold }

func (j jobSampler) config(s int, l layers) device.Config {
	spec := jobSpec(j.w.variant, s, j.w.shape)
	cfg := baseConfig(fleet.DeviceSeed(spec.Seed, 0), l)
	if l.tracer {
		norm, _ := spec.Normalize(jobs.Limits{})
		cfg.Trace = trace.New(norm.Key(), "POST /jobs", trace.Config{SampleRate: 1}).Fleet(1).Device(0)
	}
	return cfg
}

func (j jobSampler) drive(s int, dev *device.Device, l layers, tm *devTimes) error {
	spec := jobSpec(j.w.variant, s, j.w.shape)
	cells := corpus.Cells()
	cellIdx := s % len(cells)
	w, err := scenario.Populate(dev)
	if err != nil {
		return err
	}
	tm.lap(s, "scenario.populate")
	var wd *obsv.Watchdog
	if l.watchdog {
		if wd, err = obsv.NewWatchdog(dev, obsv.WatchdogOptions{}); err != nil {
			return err
		}
		wd.Start()
	}
	var fc *obsv.FlameCollector
	if l.flame {
		fc = obsv.AttachFlame(dev)
	}
	script, err := corpus.Generate(cells[cellIdx], corpus.ScriptSeed(spec.Seed, cellIdx, 0),
		corpus.Params{Horizon: time.Duration(spec.Horizon)})
	if err != nil {
		return err
	}
	tm.lap(s, "corpus.generate")
	if err := script.Apply(w); err != nil {
		return err
	}
	if wd != nil {
		wd.Finish()
	}
	tm.lap(s, "corpus.apply")
	if fc != nil {
		fc.Fold()
		tm.lap(s, "obsv.flame_fold")
	}
	if dev.Trace != nil && dev.Telemetry != nil {
		dev.Telemetry.ForEachKernelBatch(func(b telemetry.KernelBatch) {
			dev.Trace.Phase(trace.PhaseKernelBatch, b.T, b.T, float64(b.N))
		})
	}
	return nil
}

// probe counts what a device did: kernel events fired, meter
// intervals integrated and telemetry events the ring overwrote.
type probe struct {
	events, intervals, dropped float64
}

// runSample builds, drives and finishes one sample device.
func runSample(sm sampler, s int, l layers, tm *devTimes, pr *probe) error {
	cfg := sm.config(s, l)
	own := cfg.Telemetry != nil
	if pr != nil && !own {
		// Counting needs a recorder; a metrics-only one records no events.
		cfg.Telemetry = telemetry.New(telemetry.Options{EventCapacity: -1})
	}
	tm.mark(s)
	dev, err := device.New(cfg)
	if err != nil {
		return err
	}
	tm.lap(s, "device.new")
	if pr != nil {
		dev.Meter.AddSink(hw.SinkFunc(func(hw.Interval) { pr.intervals++ }))
	}
	if err := sm.drive(s, dev, l, tm); err != nil {
		return err
	}
	if v := dev.FinishChecks(); len(v) > 0 {
		return fmt.Errorf("sample %d: %d invariant violations", s, len(v))
	}
	if pr != nil {
		pr.events += dev.Telemetry.Metrics().Counter("sim.events_fired").Value()
		if own {
			pr.dropped += float64(dev.Telemetry.Dropped())
		}
	}
	return nil
}

// ablation is the result of one ablation pass, per sample device.
type ablation struct {
	stepMS    map[string]float64 // host ms each chain step adds
	stepBytes map[string]float64 // heap bytes each chain step adds
	lapMS     map[string]float64 // mean lap time on the full device
	newBytes  float64            // heap bytes device.New allocates
	probe     probe
}

// ablate runs samples devices through every step of chain reps times,
// steps interleaved within each rep so drift hits all of them alike,
// and reports the median time and allocation each step adds.
func ablate(sm sampler, chain []step, samples, reps int) (*ablation, error) {
	cfgs := make([]layers, len(chain)+1)
	for i, st := range chain {
		cfgs[i+1] = cfgs[i]
		st.attach(&cfgs[i+1])
	}
	full := cfgs[len(chain)]
	times := make([][]float64, len(cfgs))
	allocs := make([][]float64, len(cfgs))
	lapSum := map[string]float64{}
	for r := 0; r < reps; r++ {
		for c, l := range cfgs {
			var tm *devTimes
			if c == len(chain) {
				tm = newDevTimes(samples)
			}
			a0, t0 := allocBytes(), time.Now()
			for s := 0; s < samples; s++ {
				if err := runSample(sm, s, l, tm, nil); err != nil {
					return nil, err
				}
			}
			times[c] = append(times[c], ms(time.Since(t0)))
			allocs[c] = append(allocs[c], float64(allocBytes()-a0))
			if tm != nil {
				for _, spans := range tm.spans {
					for _, sp := range spans {
						lapSum[sp.name] += ms(sp.dur)
					}
				}
			}
		}
	}
	a := &ablation{stepMS: map[string]float64{}, stepBytes: map[string]float64{}, lapMS: map[string]float64{}}
	n := float64(samples)
	for i, st := range chain {
		a.stepMS[st.metric] = (median(times[i+1]) - median(times[i])) / n
		a.stepBytes[st.metric] = (median(allocs[i+1]) - median(allocs[i])) / n
	}
	for name, v := range lapSum {
		a.lapMS[name] = v / n / float64(reps)
	}
	for s := 0; s < samples; s++ {
		cfg := sm.config(s, full)
		a0 := allocBytes()
		if _, err := device.New(cfg); err != nil {
			return nil, err
		}
		a.newBytes += float64(allocBytes()-a0) / n
		if err := runSample(sm, s, full, nil, &a.probe); err != nil {
			return nil, err
		}
	}
	a.probe.events /= n
	a.probe.intervals /= n
	a.probe.dropped /= n
	return a, nil
}
