// Package eandroid is the public API of the E-Android reproduction: a
// deterministic discrete-event simulation of an Android-like device with
// pluggable energy accounting, the paper's six collateral energy
// attacks, and E-Android's collateral energy maps layered on top of two
// baseline attribution policies (Android BatteryStats-style and
// PowerTutor-style).
//
// Build a device, install apps, script behaviour against the simulated
// framework, run the virtual clock, and read energy views:
//
//	dev := eandroid.MustNew(eandroid.Config{EAndroid: true})
//	mal := dev.Packages.MustInstall(
//	    eandroid.NewManifest("com.mal", "Mal").Activity("Main", true).MustBuild())
//	...
//	dev.Run(60 * time.Second)
//	fmt.Print(dev.EAndroidView())
package eandroid

import (
	"context"

	"repro/internal/accounting"
	"repro/internal/activity"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/display"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/intent"
	"repro/internal/jobs"
	"repro/internal/manifest"
	"repro/internal/obsv"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Core device types.
type (
	// Config controls device construction; the zero value builds a
	// stock-Android device with BatteryStats accounting.
	Config = device.Config
	// Device is a fully wired simulated smartphone.
	Device = device.Device
)

// New builds and wires a device.
func New(cfg Config) (*Device, error) { return device.New(cfg) }

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config) *Device { return device.MustNew(cfg) }

// Identity and app-model types.
type (
	// UID identifies an installed app.
	UID = app.UID
	// App is one installed application.
	App = app.App
	// Workload is a component's hardware demand profile.
	Workload = app.Workload
	// ManifestBuilder assembles manifests fluently.
	ManifestBuilder = manifest.Builder
	// IntentFilter declares implicit-intent matching rules.
	IntentFilter = manifest.IntentFilter
	// Intent is a request to start a component.
	Intent = intent.Intent
)

// NewManifest starts a manifest builder for the given package and label.
func NewManifest(pkg, label string) *ManifestBuilder {
	return manifest.NewBuilder(pkg, label)
}

// UIDSystem is the pseudo-UID battery views charge platform energy to.
const UIDSystem = app.UIDSystem

// Permission strings.
const (
	PermWakeLock      = manifest.PermWakeLock
	PermWriteSettings = manifest.PermWriteSettings
)

// PowerTutor is the accounting policy that charges screen energy to the
// foreground app; the zero Policy is Android's BatteryStats, which
// reports it as a separate entry.
const PowerTutor = accounting.PowerTutor

// FrameworkOnly is the E-Android monitor mode that records collateral
// events without the accounting module; the zero MonitorMode is the
// complete monitor.
const FrameworkOnly = core.FrameworkOnly

// ScreenBrightWakeLock keeps the screen on at full brightness.
const ScreenBrightWakeLock = power.ScreenBright

// Display brightness change sources.
const (
	SourceApp      = display.SourceApp
	SourceSystemUI = display.SourceSystemUI
)

// Attack vectors reported by the monitor.
const (
	VectorActivity    = core.VectorActivity
	VectorInterrupt   = core.VectorInterrupt
	VectorServiceBind = core.VectorServiceBind
	VectorWakelock    = core.VectorWakelock
	// VectorProvider is the extension vector for cross-app
	// content-provider queries (see DESIGN.md).
	VectorProvider = core.VectorProvider
)

// ChargeSplit is the collateral charge policy that divides the driven
// party's energy among the drivers; the zero policy charges every
// driver the full energy (the paper's policy).
const ChargeSplit = core.ChargeSplit

// TransparentActivity marks a started activity as transparent (the
// overlay trick used by the paper's malware #4).
func TransparentActivity() activity.StartOption { return activity.Transparent() }

// Nexus4Profile is the default power model (linear CPU).
var Nexus4Profile = hw.Nexus4

// Fleet API: run many independent devices concurrently (one
// single-threaded engine per goroutine) with per-device seeds derived
// from a fleet seed and order-stable aggregation. Execution streams:
// finished devices fold into a bounded block-locked accumulator and are
// dropped, so fleet memory is O(workers + window), not O(devices).
// Set FleetSpec.Stream to consume each result exactly once as it
// finishes, or let CollectFleet keep them all.
type (
	// FleetSpec describes a fleet run: device count, worker bound,
	// fleet seed, config template, scenario func and horizon.
	FleetSpec = fleet.Spec
	// FleetResult is a completed fleet run: the merged summary.
	FleetResult = fleet.FleetResult
	// FleetDeviceResult is one device's result, as FleetSpec.Stream
	// receives it: battery figures, the baseline ledger as one
	// UID-ascending row per UID (Energy), and, on a device whose monitor
	// recorded an attack, collateral rows per driving app and attack
	// counts per vector. Each row carries its UID's label.
	FleetDeviceResult = fleet.Result
)

// CollectFleet sets spec.Stream to keep every device's result in the
// returned slice, indexed by device; read it after RunFleet returns.
func CollectFleet(spec *FleetSpec) []FleetDeviceResult { return fleet.Collect(spec) }

// RenderFleetDevices prints one line per device of results.
func RenderFleetDevices(results []FleetDeviceResult) string { return fleet.RenderDevices(results) }

// RunFleet executes spec's devices on a bounded worker pool. Per-device
// failures (including panics) are captured in the matching result's
// Err; ctx cancels dispatch and in-flight horizons.
func RunFleet(ctx context.Context, spec FleetSpec) (*FleetResult, error) {
	return fleet.Run(ctx, spec)
}

// Telemetry API: structured event tracing and metrics. Attach a
// recorder through Config.Telemetry (one per device — recorders are
// single-goroutine, like the engine they observe), or set
// FleetSpec.Telemetry to give every fleet device its own, sized to what
// the fleet reads (metrics, plus the kernel log on a traced device),
// and read the device-index-order fold of their registries from
// FleetResult.Metrics.
type (
	// TelemetryRecorder is the typed event tracer + metrics registry.
	TelemetryRecorder = telemetry.Recorder
	// TelemetryOptions configures a recorder (ring capacity).
	TelemetryOptions = telemetry.Options
	// TelemetryMetrics is a metrics registry, its series kept in order.
	TelemetryMetrics = telemetry.Metrics
)

// NewTelemetry builds a recorder for Config.Telemetry.
func NewTelemetry(opts TelemetryOptions) *TelemetryRecorder { return telemetry.New(opts) }

// Observability API: the live plane layered over telemetry. ObsvServer
// is the stdlib-only HTTP surface the eandroid-serve daemon runs
// (Prometheus /metrics over registered metrics sources, health
// probes, pprof, live trace summaries); FlameCollector folds the
// meter's attribution stream into energy flame graphs; Watchdog is the
// streaming drain-anomaly detector (the paper's esDiagnose signal).
type (
	// ObsvServer is the live observability HTTP server.
	ObsvServer = obsv.Server
	// FlameCollector accumulates one device's attribution stream.
	FlameCollector = obsv.FlameCollector
	// Watchdog is the rolling-window drain-anomaly detector.
	Watchdog = obsv.Watchdog
	// WatchdogOptions configures a Watchdog (window, history).
	WatchdogOptions = obsv.WatchdogOptions
)

// NewObsvServer builds an (unstarted) observability server; register
// series with AddMetricsSource, call Start(addr) to bind and
// AwaitShutdown to block until interrupted.
func NewObsvServer() *ObsvServer { return obsv.NewServer() }

// AttachFlame subscribes a flame collector to a device's meter; Fold it
// after the run.
func AttachFlame(dev *Device) *FlameCollector { return obsv.AttachFlame(dev) }

// NewWatchdog builds a drain-anomaly watchdog over a device. Start
// attaches it to the device's meter as an interval sink (no telemetry
// recorder needed) before the run; Finish closes it after.
func NewWatchdog(dev *Device, opts WatchdogOptions) (*Watchdog, error) {
	return obsv.NewWatchdog(dev, opts)
}

// WritePrometheus renders a metrics registry in Prometheus text
// exposition format: the encoder behind /metrics, a job's
// metrics.prom and the CLIs' -metrics-out.
var WritePrometheus = obsv.WritePrometheus

// ServiceConnection is one live bindService link.
type ServiceConnection = service.Connection

// Jobs API: the simulation-as-a-service control plane layered over the
// fleet runner and scenario corpus. A JobManager owns a bounded queue
// and runner pool plus a content-addressed artifact cache; AttachJobs
// mounts its HTTP surface (POST /jobs, SSE progress, artifacts) on an
// observability server.
type (
	// JobManager runs submitted jobs and caches their artifacts.
	JobManager = jobs.Manager
	// JobManagerOptions sizes the runner pool, queue and cache.
	JobManagerOptions = jobs.Options
	// JobStatus is a job's JSON-renderable state.
	JobStatus = jobs.Status
)

// JobKindScenario is the single-device job kind; the others are
// "fleet" and "corpus".
const JobKindScenario = jobs.KindScenario

// NewJobManager builds a running job manager; Close it when done.
func NewJobManager(opts JobManagerOptions) *JobManager { return jobs.NewManager(opts) }

// AttachJobs mounts a manager's HTTP surface under /jobs on an
// observability server, wires its counters and RED request series into
// /metrics, and closes the manager on server shutdown.
var AttachJobs = jobs.Attach
