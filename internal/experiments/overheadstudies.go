package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/obsv"
	"repro/internal/powersig"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// soloHorizon is the virtual span of one single-device rep: long enough
// (~10 ms of wall time) that the gates sit well above timer noise.
// The detector's 1 Hz samples wrap the default telemetry ring several
// times over, so an enabled recorder is charged for its steady-state
// overwrite path, not just the cheaper fill phase.
const soloHorizon = 32 * time.Hour

// The trace study times a small serial fleet: it measures per-device
// tracing cost, not pool scheduling.
const (
	traceDevices = 4
	traceHorizon = 8 * time.Hour
)

// stealthDetector is the workload every overhead study times: the §V
// stealth auto-launch attack on w under a power-signature detector
// sampling every virtual second, run for horizon. Observers under test
// attach to w.Dev before the call.
func stealthDetector(w *scenario.World, horizon time.Duration) error {
	det, err := powersig.NewDetector(w.Dev.Engine, w.Dev.Meter, w.Dev.Packages, 0)
	if err != nil {
		return err
	}
	det.Start()
	if err := w.ForceScreenOn(); err != nil {
		return err
	}
	if err := w.StealthAutoLaunch(60 * time.Second); err != nil {
		return err
	}
	return w.Dev.Run(horizon)
}

// soloWorld builds a single-device study's world with rec and checks
// attached. It ignores the process-default world options, so a CLI's
// own recorder cannot leak into a baseline.
func soloWorld(rec *telemetry.Recorder, checks *check.Options) (*scenario.World, error) {
	cfg := worldCfg(accounting.BatteryStats)
	cfg.Telemetry, cfg.Checks = rec, checks
	return scenario.NewWorldWith(cfg, scenario.WorldOptions{})
}

// solo runs the single-device workload with rec and checks attached.
func solo(rec *telemetry.Recorder, checks *check.Options) (*scenario.World, error) {
	w, err := soloWorld(rec, checks)
	if err != nil {
		return nil, err
	}
	return w, stealthDetector(w, soloHorizon)
}

// checked runs the single-device workload under checker opts and, when
// key is set, records the violations under it.
func checked(opts check.Options, key string) func(Counts) error {
	return func(c Counts) error {
		w, err := solo(nil, &opts)
		if err != nil {
			return err
		}
		n := len(w.Dev.FinishChecks())
		if key != "" {
			c[key] = float64(n)
		}
		return nil
	}
}

// traced runs the trace study's fleet under tracer cfg (nil: no
// tracer at all) and, when counted, records the span inventory. Every
// device keeps a fleet recorder and a watchdog in every mode, so the
// only variable is tracing, priced as a job device pays for it: a
// traced device's recorder also keeps the kernel log its batch spans
// fold from.
func traced(cfg *trace.Config, counted bool) func(Counts) error {
	return func(c Counts) error {
		var tr *trace.Tracer
		var ft *trace.FleetTrace
		if cfg != nil {
			tr = trace.New("trace-overhead", "bench", *cfg)
			ft = tr.Fleet(traceDevices)
		}
		fr, err := fleet.Run(context.Background(), fleet.Spec{
			Devices:   traceDevices,
			Workers:   1,
			Seed:      42,
			Config:    worldCfg(accounting.BatteryStats),
			Telemetry: true,
			Trace:     ft,
			Scenario: func(_ int, dev *device.Device) error {
				w, err := scenario.Populate(dev)
				if err != nil {
					return err
				}
				wd, err := obsv.NewWatchdog(dev, obsv.WatchdogOptions{})
				if err != nil {
					return err
				}
				wd.Start()
				if err := stealthDetector(w, traceHorizon); err != nil {
					return err
				}
				wd.Finish()
				return nil
			},
		})
		if err != nil {
			return err
		}
		for _, f := range fr.Summary.Failures {
			return fmt.Errorf("device %d: %s", f.Index, f.Err)
		}
		if counted {
			tr.Finish()
			c["spans"], c["dropped_spans"] = float64(tr.SpanCount()), float64(tr.Dropped())
		}
		return nil
	}
}

// The overhead-study table: each entry declares its workload, its
// modes and its gates; OverheadStudy.Run does the rest.
var (
	// TelemetryStudy prices a full recorder: both rings plus metrics,
	// what the CLIs attach (a job device keeps metrics only). An
	// uninstrumented device has no recorder at all (a nil recorder is
	// the off state), which is the baseline.
	TelemetryStudy = &OverheadStudy{
		Name:     "telemetry",
		Title:    "Telemetry overhead study (paper §VI-C analog)",
		Workload: fmt.Sprintf("stealth attack + 1 Hz detector, %v horizon", soloHorizon),
		Reps:     12,
		Modes: []Mode{
			{"baseline", "no recorder", func(Counts) error {
				_, err := solo(nil, nil)
				return err
			}},
			{"enabled", "full event + metrics recording", func(c Counts) error {
				rec := telemetry.New(telemetry.Options{})
				if _, err := solo(rec, nil); err != nil {
					return err
				}
				c["events_recorded"], c["events_dropped"] = float64(rec.Total()), float64(rec.Dropped())
				return nil
			}},
		},
		Gates: []Gate{{"enabled", 10}},
	}

	// CheckStudy prices the invariant checker: the passive families
	// (gated, so the always-available default stays honest) and the
	// opt-in differential oracle (reported only). Its baseline builds a
	// Disabled checker rather than none: a nil Checks would pick up
	// EANDROID_CHECK from the environment.
	CheckStudy = &OverheadStudy{
		Name:     "check",
		Title:    "Invariant checker overhead study",
		Workload: fmt.Sprintf("stealth attack + 1 Hz detector, %v horizon", soloHorizon),
		Reps:     6,
		Modes: []Mode{
			{"baseline", "checker disabled", checked(check.Options{Disabled: true}, "")},
			{"enabled", "passive checks 1-4", checked(check.Options{}, "enabled_violations")},
			{"differential", "+ shadow sampled accountant", checked(check.Options{Differential: true}, "differential_violations")},
		},
		Gates: []Gate{{"enabled", 5}},
		Sanity: func(c Counts) error {
			if c["enabled_violations"] != 0 || c["differential_violations"] != 0 {
				return fmt.Errorf("checker found %.0f passive / %.0f differential violations",
					c["enabled_violations"], c["differential_violations"])
			}
			return nil
		},
	}

	// ObsvStudy prices the observers every job device carries: the
	// watchdog and the flame collector, here on a recorder with both
	// rings, which job devices no longer keep. On a 2-CPU host
	// the dense watchdog windows and the reused flame snapshot brought
	// it from +131…+147% to +89…+105%; the gate sits between the two,
	// so it catches a regression of that work. A cheaper detector
	// baseline then raised the ratio to +135…+170% with the observers
	// unchanged, and findings that carry numbers instead of text
	// brought it to +94…+103%.
	ObsvStudy = &OverheadStudy{
		Name:     "obsv",
		Title:    "Observability overhead study",
		Workload: fmt.Sprintf("stealth attack + 1 Hz detector, %v horizon", soloHorizon),
		Reps:     12,
		Modes: []Mode{
			{"baseline", "no obsv", func(Counts) error {
				_, err := solo(nil, nil)
				return err
			}},
			{"enabled", "watchdog + flame on a recorder", func(c Counts) error {
				w, err := soloWorld(telemetry.New(telemetry.Options{}), nil)
				if err != nil {
					return err
				}
				wd, err := obsv.NewWatchdog(w.Dev, obsv.WatchdogOptions{})
				if err != nil {
					return err
				}
				wd.Start()
				fc := obsv.AttachFlame(w.Dev)
				if err := stealthDetector(w, soloHorizon); err != nil {
					return err
				}
				c["findings"], c["flame_stacks"] = float64(len(wd.Finish())), float64(len(fc.Fold().Stacks))
				return nil
			}},
		},
		Gates: []Gate{{"enabled", 120}},
		Sanity: func(c Counts) error {
			if c["findings"] == 0 || c["flame_stacks"] == 0 {
				return fmt.Errorf("%.0f findings, %.0f flame stacks from a stealth-attack run",
					c["findings"], c["flame_stacks"])
			}
			return nil
		},
	}

	// TraceStudy prices causal span tracing: default-style head
	// sampling (reported only) and every device traced. An untraced
	// device has a nil tracer, which is the baseline.
	TraceStudy = &OverheadStudy{
		Name:  "trace",
		Title: "Trace overhead study",
		Workload: fmt.Sprintf("%d-device serial fleet, stealth attack + 1 Hz detector + watchdog + telemetry, %v horizon",
			traceDevices, traceHorizon),
		Reps: 8,
		Modes: []Mode{
			{"baseline", "no tracer", traced(nil, false)},
			{"sampled", fmt.Sprintf("1 in %d devices traced", traceDevices), traced(&trace.Config{SampleRate: traceDevices}, false)},
			{"full", "every device traced", traced(&trace.Config{SampleRate: 1}, true)},
		},
		Gates: []Gate{{"full", 10}},
		Sanity: func(c Counts) error {
			if c["spans"] == 0 || c["dropped_spans"] != 0 {
				return fmt.Errorf("%.0f spans, %.0f dropped from a fully traced fleet", c["spans"], c["dropped_spans"])
			}
			return nil
		},
	}
)
