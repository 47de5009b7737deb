// Package microbench reproduces the paper's Table I / Figure 10 overhead
// study: the wall-clock cost of thirteen critical framework operations,
// each run 50 times under three configurations — stock Android,
// E-Android with the accounting module disabled ("framework only"), and
// complete E-Android — with the two largest and two smallest samples
// trimmed as outliers and the rest summarized as boxplot statistics.
package microbench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/activity"
	"repro/internal/app"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/display"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/power"
	"repro/internal/service"
)

// Op identifies one of Table I's thirteen micro operations.
type Op int

// Table I's operations, in the paper's order.
const (
	StartSelfService Op = iota + 1
	StopSelfService
	StartOtherService
	StopOtherService
	BindSelfService
	UnbindSelfService
	BindOtherService
	UnbindOtherService
	StartSelfActivity
	StartOtherActivity
	WakelockAcquire
	WakelockRelease
	ChangeScreen
)

var opNames = map[Op]string{
	StartSelfService:   "start_self_service",
	StopSelfService:    "stop_self_service",
	StartOtherService:  "start_other_service",
	StopOtherService:   "stop_other_service",
	BindSelfService:    "bind_self_service",
	UnbindSelfService:  "unbind_self_service",
	BindOtherService:   "bind_other_service",
	UnbindOtherService: "unbind_other_service",
	StartSelfActivity:  "start_self_activity",
	StartOtherActivity: "start_other_activity",
	WakelockAcquire:    "wakelock_acquire",
	WakelockRelease:    "wakelock_release",
	ChangeScreen:       "change_screen",
}

// String returns the operation's Table I notation.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Ops lists all thirteen operations in order.
func Ops() []Op {
	return []Op{
		StartSelfService, StopSelfService, StartOtherService, StopOtherService,
		BindSelfService, UnbindSelfService, BindOtherService, UnbindOtherService,
		StartSelfActivity, StartOtherActivity,
		WakelockAcquire, WakelockRelease, ChangeScreen,
	}
}

// ConfigName identifies the three measured device configurations.
type ConfigName string

// The three configurations in Figure 10.
const (
	ConfigAndroid   ConfigName = "android"
	ConfigFramework ConfigName = "eandroid-framework"
	ConfigComplete  ConfigName = "eandroid-complete"
)

// Configs lists the three configurations in presentation order.
func Configs() []ConfigName {
	return []ConfigName{ConfigAndroid, ConfigFramework, ConfigComplete}
}

// Stats are boxplot statistics over the trimmed samples, in
// microseconds.
type Stats struct {
	Min, Q1, Median, Q3, Max, Mean float64
}

// Result is one (operation, configuration) measurement.
type Result struct {
	Op      Op
	Config  ConfigName
	Samples []float64 // trimmed, microseconds
	Stats   Stats
}

// DefaultReps is the paper's 50 runs per operation.
const DefaultReps = 50

// trimOutliers is how many of each extreme the paper excludes.
const trimOutliers = 2

// bench holds a device plus the two fixture apps the operations act on.
type bench struct {
	dev   *device.Device
	self  *app.App // the app issuing the operations
	other *app.App // the other app it drives
}

func newBench(cfgName ConfigName) (*bench, error) {
	// The samples price the E-Android framework, not the invariant
	// checker, so it is disabled.
	cfg := device.Config{Checks: &check.Options{Disabled: true}}
	switch cfgName {
	case ConfigAndroid:
	case ConfigFramework:
		cfg.EAndroid = true
		cfg.MonitorMode = core.FrameworkOnly
	case ConfigComplete:
		cfg.EAndroid = true
		cfg.MonitorMode = core.Complete
	default:
		return nil, fmt.Errorf("microbench: unknown config %q", cfgName)
	}
	dev, err := device.New(cfg)
	if err != nil {
		return nil, err
	}
	b := &bench{dev: dev}
	b.self, err = dev.Packages.Install(manifest.NewBuilder("com.bench.self", "Self").
		Permission(manifest.PermWakeLock, manifest.PermWriteSettings).
		Activity("Main", true).
		Activity("Second", false).
		Service("Svc", true).
		MustBuild())
	if err != nil {
		return nil, err
	}
	b.other, err = dev.Packages.Install(manifest.NewBuilder("com.bench.other", "Other").
		Activity("Main", true).
		Service("Svc", true).
		MustBuild())
	if err != nil {
		return nil, err
	}
	if _, err := dev.Activities.UserStartApp("com.bench.self"); err != nil {
		return nil, err
	}
	return b, nil
}

// measure runs one rep of op, timing only the operation itself; setup
// and teardown run untimed around it.
func (b *bench) measure(op Op) (time.Duration, error) {
	dev := b.dev
	selfSvc := "com.bench.self/Svc"
	otherSvc := "com.bench.other/Svc"
	switch op {
	case StartSelfService:
		d, err := timed(func() error {
			_, e := dev.Services.Start(intent.Intent{Sender: b.self.UID, Component: selfSvc})
			return e
		})
		if err != nil {
			return 0, err
		}
		return d, dev.Services.Stop(b.self.UID, selfSvc)
	case StopSelfService:
		if _, err := dev.Services.Start(intent.Intent{Sender: b.self.UID, Component: selfSvc}); err != nil {
			return 0, err
		}
		return timed(func() error { return dev.Services.Stop(b.self.UID, selfSvc) })
	case StartOtherService:
		d, err := timed(func() error {
			_, e := dev.Services.Start(intent.Intent{Sender: b.self.UID, Component: otherSvc})
			return e
		})
		if err != nil {
			return 0, err
		}
		return d, dev.Services.Stop(b.self.UID, otherSvc)
	case StopOtherService:
		if _, err := dev.Services.Start(intent.Intent{Sender: b.self.UID, Component: otherSvc}); err != nil {
			return 0, err
		}
		return timed(func() error { return dev.Services.Stop(b.self.UID, otherSvc) })
	case BindSelfService:
		c, d, err := timedBind(dev, b.self.UID, selfSvc)
		if err != nil {
			return 0, err
		}
		return d, dev.Services.Unbind(c)
	case UnbindSelfService:
		c, err := dev.Services.Bind(intent.Intent{Sender: b.self.UID, Component: selfSvc})
		if err != nil {
			return 0, err
		}
		return timed(func() error { return dev.Services.Unbind(c) })
	case BindOtherService:
		c, d, err := timedBind(dev, b.self.UID, otherSvc)
		if err != nil {
			return 0, err
		}
		return d, dev.Services.Unbind(c)
	case UnbindOtherService:
		c, err := dev.Services.Bind(intent.Intent{Sender: b.self.UID, Component: otherSvc})
		if err != nil {
			return 0, err
		}
		return timed(func() error { return dev.Services.Unbind(c) })
	case StartSelfActivity:
		a, d, err := timedStart(dev, b.self.UID, "com.bench.self/Second")
		if err != nil {
			return 0, err
		}
		return d, dev.Activities.Finish(a)
	case StartOtherActivity:
		a, d, err := timedStart(dev, b.self.UID, "com.bench.other/Main")
		if err != nil {
			return 0, err
		}
		return d, dev.Activities.Finish(a)
	case WakelockAcquire:
		var wl *power.Wakelock
		d, err := timed(func() error {
			var e error
			wl, e = dev.Power.Acquire(b.self.UID, power.Partial, "bench")
			return e
		})
		if err != nil {
			return 0, err
		}
		return d, wl.Release()
	case WakelockRelease:
		wl, err := dev.Power.Acquire(b.self.UID, power.Partial, "bench")
		if err != nil {
			return 0, err
		}
		return timed(func() error { return wl.Release() })
	case ChangeScreen:
		// Alternate so the write is never a no-op.
		next := 40
		if dev.Meter.Brightness() == 40 {
			next = 200
		}
		return timed(func() error {
			return dev.Display.SetBrightness(b.self.UID, display.SourceApp, next)
		})
	}
	return 0, fmt.Errorf("microbench: unknown op %v", op)
}

func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

func timedBind(dev *device.Device, uid app.UID, comp string) (c *service.Connection, d time.Duration, err error) {
	start := time.Now()
	c, err = dev.Services.Bind(intent.Intent{Sender: uid, Component: comp})
	return c, time.Since(start), err
}

func timedStart(dev *device.Device, uid app.UID, comp string) (a *activity.Activity, d time.Duration, err error) {
	start := time.Now()
	a, err = dev.Activities.StartActivity(intent.Intent{Sender: uid, Component: comp})
	return a, time.Since(start), err
}

// Run measures all operations under all three configurations with the
// given rep count (use DefaultReps for the paper's 50).
func Run(reps int) ([]Result, error) {
	if reps <= 2*trimOutliers {
		return nil, fmt.Errorf("microbench: reps must exceed %d, got %d", 2*trimOutliers, reps)
	}
	var out []Result
	for _, cfg := range Configs() {
		b, err := newBench(cfg)
		if err != nil {
			return nil, err
		}
		for _, op := range Ops() {
			// Warm-up rep to populate lazy structures, untimed.
			if _, err := b.measure(op); err != nil {
				return nil, fmt.Errorf("microbench: %v/%v warmup: %w", cfg, op, err)
			}
			samples := make([]float64, 0, reps)
			for i := 0; i < reps; i++ {
				d, err := b.measure(op)
				if err != nil {
					return nil, fmt.Errorf("microbench: %v/%v rep %d: %w", cfg, op, i, err)
				}
				samples = append(samples, float64(d.Nanoseconds())/1000)
			}
			trimmed := Trim(samples, trimOutliers)
			out = append(out, Result{
				Op:      op,
				Config:  cfg,
				Samples: trimmed,
				Stats:   Summarize(trimmed),
			})
		}
	}
	return out, nil
}

// Trim sorts samples and drops k from each end, matching the paper's
// outlier policy ("we excluded the two biggest and smallest values").
func Trim(samples []float64, k int) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) <= 2*k {
		return s
	}
	return s[k : len(s)-k]
}

// Summarize computes boxplot statistics over sorted-or-not samples.
func Summarize(samples []float64) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Stats{
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// Render formats results as the Figure 10 comparison table (one row per
// operation per configuration) with a crude ASCII box.
func Render(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Micro benchmark (Table I ops, Figure 10) — times in µs, %d reps, 2 hi/lo trimmed\n",
		DefaultReps)
	fmt.Fprintf(&b, "%-22s %-20s %8s %8s %8s %8s %8s\n",
		"operation", "config", "min", "q1", "median", "q3", "max")
	for _, r := range results {
		fmt.Fprintf(&b, "%-22s %-20s %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			r.Op, r.Config, r.Stats.Min, r.Stats.Q1, r.Stats.Median, r.Stats.Q3, r.Stats.Max)
	}
	return b.String()
}
