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
	"repro/internal/broadcast"
	"repro/internal/check"
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
	"repro/internal/trace"
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
	// Manifest describes an application's components and permissions.
	Manifest = manifest.Manifest
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

// Pseudo-UIDs used in battery views.
const (
	UIDNone   = app.UIDNone
	UIDScreen = app.UIDScreen
	UIDSystem = app.UIDSystem
)

// Permission strings.
const (
	PermWakeLock      = manifest.PermWakeLock
	PermWriteSettings = manifest.PermWriteSettings
)

// Accounting policies.
const (
	// BatteryStats reports screen energy as a separate entry (Android's
	// official interface).
	BatteryStats = accounting.BatteryStats
	// PowerTutor charges screen energy to the foreground app.
	PowerTutor = accounting.PowerTutor
)

// E-Android monitor modes.
const (
	// FrameworkOnly records collateral events without the accounting
	// module.
	FrameworkOnly = core.FrameworkOnly
	// Complete enables full collateral accounting.
	Complete = core.Complete
)

// Wakelock types.
const (
	PartialWakeLock      = power.Partial
	ScreenDimWakeLock    = power.ScreenDim
	ScreenBrightWakeLock = power.ScreenBright
	FullWakeLock         = power.Full
)

// Display modes and change sources.
const (
	BrightnessManual = display.Manual
	BrightnessAuto   = display.Auto
	SourceApp        = display.SourceApp
	SourceSystemUI   = display.SourceSystemUI
)

// Attack vectors reported by the monitor.
const (
	VectorActivity     = core.VectorActivity
	VectorInterrupt    = core.VectorInterrupt
	VectorServiceStart = core.VectorServiceStart
	VectorServiceBind  = core.VectorServiceBind
	VectorScreen       = core.VectorScreen
	VectorWakelock     = core.VectorWakelock
	// VectorBroadcast is this reproduction's extension vector for
	// cross-app broadcasts (see DESIGN.md).
	VectorBroadcast = core.VectorBroadcast
	// VectorProvider is the extension vector for cross-app
	// content-provider queries (see DESIGN.md).
	VectorProvider = core.VectorProvider
)

// Collateral charge policies.
const (
	// ChargeFullToEach charges every driver the driven party's full
	// energy (the paper's policy).
	ChargeFullToEach = core.ChargeFullToEach
	// ChargeSplit divides the driven party's energy among the drivers.
	ChargeSplit = core.ChargeSplit
)

// Monitor-facing types.
type (
	// Attack is one collateral attack lifecycle record.
	Attack = core.Attack
	// MapEntry is one element of a collateral energy map.
	MapEntry = core.MapEntry
	// Breakdown is one revised-battery-interface row.
	Breakdown = core.Breakdown
)

// TransparentActivity marks a started activity as transparent (the
// overlay trick used by the paper's malware #4).
func TransparentActivity() activity.StartOption { return activity.Transparent() }

// Hardware profile helpers.
var (
	// Nexus4Profile is the default power model (linear CPU).
	Nexus4Profile = hw.Nexus4
	// Nexus4DVFSProfile enables the DVFS CPU ladder.
	Nexus4DVFSProfile = hw.Nexus4DVFS
)

// NexusBatteryJ is the default battery capacity in joules.
const NexusBatteryJ = hw.NexusBatteryJ

// Fleet API: run many independent devices concurrently (one
// single-threaded engine per goroutine) with per-device seeds derived
// from a fleet seed and order-stable aggregation. Execution streams:
// finished devices fold into a bounded sharded accumulator and are
// dropped, so fleet memory is O(workers + window), not O(devices).
// Set FleetSpec.RetainResults to keep the per-device slice, or
// FleetSpec.Stream to consume each result exactly once as it finishes.
type (
	// FleetSpec describes a fleet run: device count, worker and shard
	// bounds, fleet seed, config template, scenario func and horizon.
	FleetSpec = fleet.Spec
	// FleetResult is a completed fleet run: the merged summary, plus
	// per-device results sorted by index when RetainResults was set.
	FleetResult = fleet.FleetResult
	// FleetDeviceResult is the harvest of one device in the fleet.
	FleetDeviceResult = fleet.Result
	// FleetSummary is the fleet-level merge of all device results.
	FleetSummary = fleet.Summary
	// FleetProgress is one live per-device completion tick (fed to
	// FleetSpec.Progress from worker goroutines).
	FleetProgress = fleet.Progress
	// FleetFailure is one sampled device failure in a streaming
	// summary (FleetSummary.Failures keeps the first few).
	FleetFailure = fleet.Failure
)

// RunFleet executes spec's devices on a bounded worker pool. Per-device
// failures (including panics) are captured in the matching
// FleetDeviceResult.Err; ctx cancels dispatch and in-flight horizons.
func RunFleet(ctx context.Context, spec FleetSpec) (*FleetResult, error) {
	return fleet.Run(ctx, spec)
}

// FleetDeviceSeed reports the engine seed device i of a fleet would
// run with (splitmix64 derivation from the fleet seed).
func FleetDeviceSeed(fleetSeed int64, i int) int64 {
	return fleet.DeviceSeed(fleetSeed, i)
}

// Telemetry API: structured event tracing and metrics. Attach a
// recorder through Config.Telemetry (one per device — recorders are
// single-goroutine, like the engine they observe), or set
// FleetSpec.Telemetry to give every fleet device its own and read the
// order-stable merge from FleetResult.Metrics.
type (
	// TelemetryRecorder is the typed event tracer + metrics registry.
	TelemetryRecorder = telemetry.Recorder
	// TelemetryOptions configures a recorder (ring capacity, gating).
	TelemetryOptions = telemetry.Options
	// TelemetryEvent is one structured record.
	TelemetryEvent = telemetry.Event
	// TelemetryMetrics is a live instrument registry.
	TelemetryMetrics = telemetry.Metrics
	// TelemetrySnapshot is an order-stable freeze of a registry.
	TelemetrySnapshot = telemetry.Snapshot
)

// NewTelemetry builds a recorder for Config.Telemetry.
func NewTelemetry(opts TelemetryOptions) *TelemetryRecorder { return telemetry.New(opts) }

// Runtime invariant checking: set Config.Checks to attach a checker
// that validates energy conservation, battery bounds, lifecycle
// legality and aggregator consistency on every metering interval, with
// an optional differential oracle (a shadow sampled accountant checked
// against the exact ledger). Leave Config.Checks nil to let the
// EANDROID_CHECK environment variable decide. After a run, call
// Device.FinishChecks for the final audit and the violation list.
type (
	// CheckOptions configures the invariant checker.
	CheckOptions = check.Options
	// CheckViolation is one recorded invariant violation.
	CheckViolation = check.Violation
	// CheckInvariant identifies which invariant family a violation
	// belongs to.
	CheckInvariant = check.Invariant
)

// WriteTrace exports recorded events as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing): the encoder behind the
// CLIs' -trace-out, a JSON array with one event per line.
var WriteTrace = obsv.WriteChromeEvents

// Observability API: the live plane layered over telemetry. ObsvServer
// is the stdlib-only HTTP surface the eandroid-serve daemon runs
// (Prometheus /metrics over registered snapshot sources, health
// probes, pprof, live trace summaries); FlameCollector folds the
// meter's attribution stream into energy flame graphs; Watchdog is the
// streaming drain-anomaly detector (the paper's esDiagnose signal).
type (
	// ObsvServer is the live observability HTTP server.
	ObsvServer = obsv.Server
	// Flame is a folded energy flame graph (collapsed stacks).
	Flame = obsv.Flame
	// FlameCollector accumulates one device's attribution stream.
	FlameCollector = obsv.FlameCollector
	// Watchdog is the rolling-window drain-anomaly detector.
	Watchdog = obsv.Watchdog
	// WatchdogOptions configures a Watchdog (window, thresholds).
	WatchdogOptions = obsv.WatchdogOptions
	// WatchdogFinding is one anomaly the watchdog flagged.
	WatchdogFinding = obsv.Finding
)

// Watchdog finding signal names.
const (
	SignalDrainSpike  = obsv.SignalDrainSpike
	SignalDeviceSpike = obsv.SignalDeviceSpike
	SignalDivergence  = obsv.SignalDivergence
)

// NewObsvServer builds an (unstarted) observability server; register
// series with AddMetricsSource, call Start(addr) to bind and
// AwaitShutdown to block until interrupted.
func NewObsvServer() *ObsvServer { return obsv.NewServer() }

// AttachFlame subscribes a flame collector to a device's meter; Fold it
// after the run (or merge several with MergeFlames).
func AttachFlame(dev *Device) *FlameCollector { return obsv.AttachFlame(dev) }

// MergeFlames sums several folded flames into one.
func MergeFlames(flames ...*Flame) *Flame { return obsv.MergeFlames(flames...) }

// NewWatchdog builds a drain-anomaly watchdog over a device. Start
// attaches it to the device's meter as an interval sink (no telemetry
// recorder needed) before the run; Finish closes it after.
func NewWatchdog(dev *Device, opts WatchdogOptions) (*Watchdog, error) {
	return obsv.NewWatchdog(dev, opts)
}

// WritePrometheus renders a telemetry snapshot in Prometheus text
// exposition format: the encoder behind /metrics, a job's
// metrics.prom and the CLIs' -metrics-out.
var WritePrometheus = obsv.WritePrometheus

// Service-facing aliases used by advanced callers.
type (
	// Service is one live service component instance.
	Service = service.Service
	// ServiceConnection is one live bindService link.
	ServiceConnection = service.Connection
	// Wakelock is a held wakelock registration.
	Wakelock = power.Wakelock
	// Activity is one live activity record.
	Activity = activity.Activity
	// BroadcastDelivery is one receiver invocation.
	BroadcastDelivery = broadcast.Delivery
)

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
	// JobSpec describes what one job simulates (kind, cell, seed, shape).
	JobSpec = jobs.Spec
	// JobLimits are the server-side per-job resource bounds.
	JobLimits = jobs.Limits
	// Job is one submitted job (status, SSE events, artifacts).
	Job = jobs.Job
	// JobStatus is a job's JSON-renderable state.
	JobStatus = jobs.Status
	// JobArtifacts is a completed job's named output files.
	JobArtifacts = jobs.Artifacts
)

// Job kinds accepted in JobSpec.Kind.
const (
	JobKindScenario = jobs.KindScenario
	JobKindFleet    = jobs.KindFleet
	JobKindCorpus   = jobs.KindCorpus
)

// NewJobManager builds a running job manager; Close it when done.
func NewJobManager(opts JobManagerOptions) *JobManager { return jobs.NewManager(opts) }

// AttachJobs mounts a manager's HTTP surface under /jobs on an
// observability server, wires its counters and RED request series into
// /metrics, and closes the manager on server shutdown.
var AttachJobs = jobs.Attach

// Causal tracing API: deterministic span trees across the whole stack
// (HTTP request → job → fleet shard → device → engine phases). Span
// IDs derive from splitmix64 seed chains rooted at a job's content
// address, so the exported tree is byte-identical across worker and
// shard counts; RED request metrics carry root span IDs as exemplars.
type (
	// Span is one unit of causal work (virtual-ns window, derived ID).
	Span = trace.Span
	// SpanID is a 64-bit derived span identifier (hex in JSON).
	SpanID = trace.SpanID
	// Tracer assembles one operation's span tree.
	Tracer = trace.Tracer
	// TraceConfig tunes sampling (SampleRate, Disabled).
	TraceConfig = trace.Config
	// TraceSummary is the live wall-clock view of one finished trace.
	TraceSummary = trace.Summary
	// FleetTrace threads a tracer through a fleet run (fleet.Spec.Trace).
	FleetTrace = trace.FleetTrace
	// DeviceTracer collects one sampled device's engine-phase spans.
	DeviceTracer = trace.DeviceTracer
)

// NewTracer builds a tracer rooted at a seed string (a job's content
// address); rootName labels the request span.
func NewTracer(seed, rootName string, cfg TraceConfig) *Tracer {
	return trace.New(seed, rootName, cfg)
}

// WriteChromeTrace exports a span tree as Chrome trace-event JSON
// (virtual-time only; loadable in chrome://tracing or Perfetto): the
// encoder behind a job's trace.json.
var WriteChromeTrace = obsv.WriteChromeSpans

// TraceRootID derives an operation's root span ID from its seed string.
var TraceRootID = trace.RootID
