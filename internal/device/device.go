// Package device wires the simulated substrates into a complete
// smartphone: activity/service/power/display managers, hardware power
// model, battery, a baseline accountant, and (optionally) the E-Android
// collateral monitor. The module root package re-exports this as the
// public API.
package device

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/activity"
	"repro/internal/alarm"
	"repro/internal/app"
	"repro/internal/batteryui"
	"repro/internal/broadcast"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/hw"
	"repro/internal/intent"
	"repro/internal/network"
	"repro/internal/power"
	"repro/internal/provider"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/surfaceflinger"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config controls device construction, and is all a device depends on:
// nothing is read from the environment. The zero value is usable: it
// builds a stock-Android Nexus 4-like device with BatteryStats
// accounting, the passive invariant checker and no E-Android monitor.
type Config struct {
	// Seed is not read: the simulation draws no random numbers of its
	// own. It stays only because the repo benchmark (perfbench) sets
	// it, and goes with the next change to that benchmark.
	Seed int64
	// Profile is the hardware power model; zero means hw.Nexus4().
	Profile hw.Profile
	// BatteryJ is battery capacity in joules; zero means the Nexus 4
	// pack (~28.7 kJ).
	BatteryJ float64
	// Policy selects the baseline accounting policy; zero means
	// BatteryStats.
	Policy accounting.Policy
	// EAndroid enables the E-Android monitor.
	EAndroid bool
	// MonitorMode selects the monitor mode when EAndroid is true; zero
	// means core.Complete.
	MonitorMode core.Mode
	// CollateralPolicy selects the monitor's superimposition rule; zero
	// means core.ChargeFullToEach (the paper's policy).
	CollateralPolicy core.ChargePolicy
	// Telemetry, when non-nil, is instrumented into the kernel, meter,
	// activity manager and accountant. A recorder is single-goroutine
	// like the device itself: give every device its own (fleet runs
	// build one per device from Spec.Telemetry).
	Telemetry *telemetry.Recorder
	// Checks configures the runtime invariant checker (see
	// internal/check) wired into the meter and the activity/service
	// managers. Nil means the zero check.Options: passive families 1–4.
	// Only Checks.Disabled builds a device with no checker. Like a
	// telemetry recorder, a checker is single-goroutine: one per device.
	Checks *check.Options
	// Trace, when non-nil, collects this device's engine-phase spans
	// (meter flushes via the sink below; watchdog windows and kernel
	// dispatch batches via their own layers). Like a telemetry
	// recorder it is single-goroutine: one per device, handed out by
	// trace.FleetTrace for sampled indices only.
	Trace *trace.DeviceTracer
}

// Device is a fully wired simulated smartphone.
type Device struct {
	Engine     *sim.Engine
	Packages   *app.PackageManager
	Resolver   *intent.Resolver
	Activities *activity.Manager
	Services   *service.Manager
	Broadcasts *broadcast.Manager
	Providers  *provider.Manager
	Alarms     *alarm.Manager
	Network    *network.Manager
	// Flinger models the renderer's shared-memory side channel.
	Flinger *surfaceflinger.Flinger
	Power   *power.Manager
	Display *display.Display
	Meter   *hw.Meter
	Battery *hw.Battery
	// Aggregator is the shared per-UID hardware demand aggregator the
	// component managers write through.
	Aggregator *hw.Aggregator
	// Android is the baseline accountant (always present: E-Android's
	// views are layered on top of it, mirroring the paper's "revised
	// battery interface").
	Android *accounting.Accountant
	// EAndroid is the collateral monitor, nil unless Config.EAndroid.
	EAndroid *core.Monitor
	// Telemetry is the recorder from Config.Telemetry, nil when the
	// device runs uninstrumented.
	Telemetry *telemetry.Recorder
	// Checker is the runtime invariant checker, nil only when
	// Config.Checks.Disabled. Read violations with FinishChecks.
	Checker *check.Checker
	// Trace is the span tracer from Config.Trace, nil when the device
	// runs untraced.
	Trace *trace.DeviceTracer
}

// foregroundAdapter feeds foreground changes into the accountant,
// flushing the meter first so screen energy earned before the change is
// attributed to the old foreground app.
type foregroundAdapter struct {
	meter *hw.Meter
	acc   *accounting.Accountant
}

func (f *foregroundAdapter) ActivityStarted(sim.Time, app.UID, *activity.Activity, bool) {}

func (f *foregroundAdapter) ForegroundChanged(t sim.Time, prev, cur app.UID, cause activity.Cause) {
	f.meter.Flush()
	f.acc.SetForeground(cur)
}

func (f *foregroundAdapter) Lifecycle(sim.Time, *activity.Activity, activity.State, activity.State) {
}

// New builds and wires a device.
func New(cfg Config) (*Device, error) {
	if cfg.Profile.CPUFull == 0 && cfg.Profile.ScreenBase == 0 {
		cfg.Profile = hw.Nexus4()
	}
	if cfg.BatteryJ == 0 {
		cfg.BatteryJ = hw.NexusBatteryJ
	}
	if cfg.Policy == 0 {
		cfg.Policy = accounting.BatteryStats
	}
	if cfg.MonitorMode == 0 {
		cfg.MonitorMode = core.Complete
	}

	engine := sim.NewEngine()
	battery, err := hw.NewBattery(cfg.BatteryJ)
	if err != nil {
		return nil, err
	}
	meter, err := hw.NewMeter(engine.Now, cfg.Profile, battery)
	if err != nil {
		return nil, err
	}
	agg, err := hw.NewAggregator(meter)
	if err != nil {
		return nil, err
	}
	pm := app.NewPackageManager()
	res := intent.NewResolver(pm)

	acc, err := accounting.New(cfg.Policy)
	if err != nil {
		return nil, err
	}
	meter.AddSink(acc)

	am, err := activity.NewManager(engine, pm, res, agg)
	if err != nil {
		return nil, err
	}
	svm, err := service.NewManager(engine, pm, res, agg)
	if err != nil {
		return nil, err
	}
	bcm, err := broadcast.NewManager(engine, pm, res, agg)
	if err != nil {
		return nil, err
	}
	pvm, err := provider.NewManager(engine, pm, res, agg)
	if err != nil {
		return nil, err
	}
	alm, err := alarm.NewManager(engine, pm, am, bcm)
	if err != nil {
		return nil, err
	}
	net, err := network.NewManager(engine, pm, agg)
	if err != nil {
		return nil, err
	}
	pwm, err := power.NewManager(engine, meter, pm)
	if err != nil {
		return nil, err
	}
	dsp, err := display.New(engine, meter, pm)
	if err != nil {
		return nil, err
	}
	fl, err := surfaceflinger.New(engine)
	if err != nil {
		return nil, err
	}
	am.AddHooks(fl)
	fl.Sync(am.Stack())
	am.SetUserInteractionFunc(pwm.UserActivity)
	am.AddHooks(&foregroundAdapter{meter: meter, acc: acc})
	acc.SetForeground(am.Foreground())

	if cfg.Telemetry != nil {
		telemetry.InstrumentEngine(engine, cfg.Telemetry)
		meter.SetTelemetry(cfg.Telemetry)
		am.SetTelemetry(cfg.Telemetry)
		acc.SetTelemetry(cfg.Telemetry)
	}
	if cfg.Trace != nil {
		// The tracer's sink reads only the interval endpoints and energy
		// totals, so its position among the sinks is immaterial; it sits
		// with the other observers, before the checker.
		meter.AddSink(cfg.Trace)
	}

	dev := &Device{
		Engine:     engine,
		Packages:   pm,
		Resolver:   res,
		Activities: am,
		Services:   svm,
		Broadcasts: bcm,
		Providers:  pvm,
		Alarms:     alm,
		Network:    net,
		Flinger:    fl,
		Power:      pwm,
		Display:    dsp,
		Meter:      meter,
		Battery:    battery,
		Aggregator: agg,
		Android:    acc,
		Telemetry:  cfg.Telemetry,
		Trace:      cfg.Trace,
	}

	if cfg.EAndroid {
		mon, err := core.NewMonitor(engine, pm, cfg.MonitorMode)
		if err != nil {
			return nil, err
		}
		mon.SetFlushFunc(meter.Flush)
		if cfg.CollateralPolicy != 0 {
			if err := mon.SetChargePolicy(cfg.CollateralPolicy); err != nil {
				return nil, err
			}
		}
		mon.NoteForeground(am.Foreground())
		pm.AddUninstallHook(func(a *app.App) { mon.NoteUninstalled(a.UID) })
		am.AddHooks(mon)
		svm.AddHooks(mon)
		bcm.AddHooks(mon)
		pvm.AddHooks(mon)
		pwm.AddHooks(mon)
		dsp.AddHooks(mon)
		meter.AddSink(mon)
		dev.EAndroid = mon
	}

	// The checker attaches last: its sink must run after the accountant
	// (so cumulative conservation compares a settled ledger) and after
	// the monitor (whose collateral maps superimpose by design and are
	// deliberately outside the conservation sum).
	var checks check.Options
	if cfg.Checks != nil {
		checks = *cfg.Checks
	}
	if !checks.Disabled {
		ck, err := check.New(checks, check.Deps{
			Engine:     engine,
			Battery:    battery,
			Meter:      meter,
			Aggregator: agg,
			Ledger:     acc,
			Packages:   pm,
			Telemetry:  cfg.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		meter.AddSink(ck)
		am.AddHooks(ck)
		svm.AddHooks(ck)
		dev.Checker = ck
	}
	return dev, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Run advances the simulation by d, firing all scheduled events.
func (d *Device) Run(dur time.Duration) error {
	return d.Engine.RunFor(dur)
}

// At schedules fn at an absolute instant (offset from boot).
func (d *Device) At(offset time.Duration, name string, fn func()) {
	d.Engine.Schedule(sim.Time(offset), name, fn)
}

// Flush settles energy accounting up to the current instant. Call before
// reading views.
func (d *Device) Flush() { d.Meter.Flush() }

// FinishChecks settles accounting, runs the checker's end-of-run passes
// (final aggregator audit; differential error envelope) and returns
// every recorded violation. Nil-safe and idempotent; returns nil when
// the device runs unchecked.
func (d *Device) FinishChecks() []check.Violation {
	if d.Checker == nil {
		return nil
	}
	return d.Checker.Finish()
}

// UserUnlock simulates the user unlocking the device: the screen wakes
// and the system dispatches the ACTION_USER_PRESENT broadcast that
// auto-launching apps (including the paper's malware) listen for.
func (d *Device) UserUnlock() ([]*broadcast.Delivery, error) {
	d.Power.UserActivity()
	return d.Broadcasts.SendUserPresent()
}

// DrainedJ reports total battery energy drained so far.
func (d *Device) DrainedJ() float64 {
	d.Flush()
	return d.Battery.DrainedJ()
}

// BatteryPercent reports the remaining charge.
func (d *Device) BatteryPercent() float64 {
	d.Flush()
	return d.Battery.Percent()
}

// StartActivity dispatches an explicit activity intent from sender.
func (d *Device) StartActivity(sender app.UID, component string, opts ...activity.StartOption) (*activity.Activity, error) {
	return d.Activities.StartActivity(intent.Intent{Sender: sender, Component: component}, opts...)
}

// StartService dispatches an explicit startService intent from sender.
func (d *Device) StartService(sender app.UID, component string) (*service.Service, error) {
	return d.Services.Start(intent.Intent{Sender: sender, Component: component})
}

// BindService dispatches an explicit bindService intent from sender.
func (d *Device) BindService(sender app.UID, component string) (*service.Connection, error) {
	return d.Services.Bind(intent.Intent{Sender: sender, Component: component})
}

// AndroidView renders the baseline battery interface as text.
func (d *Device) AndroidView() string {
	d.Flush()
	return batteryui.RenderBaseline(d.Packages, d.Android, d.Battery)
}

// EAndroidView renders E-Android's revised battery interface as text.
// It returns a note instead if the monitor is disabled.
func (d *Device) EAndroidView() string {
	d.Flush()
	if d.EAndroid == nil {
		return "E-Android monitor disabled\n"
	}
	return batteryui.RenderEAndroid(d.Packages, d.Android, d.EAndroid, d.Battery)
}

// Report renders a one-stop device status report: clock, battery,
// screen, foreground app, top consumers and (when the monitor is on)
// the attack log — the diagnostic view the CLI prints.
func (d *Device) Report() string {
	d.Flush()
	var b strings.Builder
	fmt.Fprintf(&b, "Device report at %v\n", d.Engine.Now())
	fmt.Fprintf(&b, "  battery:    %.1f%% (%.1f J drained of %.1f J)\n",
		d.Battery.Percent(), d.Battery.DrainedJ(), d.Battery.CapacityJ())
	screen := "off"
	if d.Power.ScreenOn() {
		screen = fmt.Sprintf("on, brightness %d", d.Meter.Brightness())
		if d.Meter.ScreenDimmed() {
			screen += " (dimmed)"
		}
	}
	fmt.Fprintf(&b, "  screen:     %s (on for %s total)\n",
		screen, d.Android.ScreenOnTime().Round(time.Second))
	fmt.Fprintf(&b, "  foreground: %s\n", d.Packages.Label(d.Activities.Foreground()))
	fmt.Fprintf(&b, "  suspended:  %v\n", d.Meter.Suspended())
	b.WriteString(d.AndroidView())
	if d.EAndroid != nil {
		b.WriteString(d.EAndroidView())
		b.WriteString(d.AttackView())
	}
	return b.String()
}

// AttackView renders the monitor's attack log, or a note if disabled.
func (d *Device) AttackView() string {
	if d.EAndroid == nil {
		return "E-Android monitor disabled\n"
	}
	return batteryui.RenderAttacks(d.Packages, d.EAndroid)
}
