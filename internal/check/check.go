// Package check is the simulation's always-available runtime invariant
// and differential-oracle subsystem. The paper's core claim is
// attribution *correctness* — battery drain must equal the sum of the
// per-app ledger entries plus screen and system (the energy-conservation
// argument behind E-Android's exact interval accounting) — and this
// package machine-checks that claim, and its structural preconditions,
// on every run rather than only in golden tests.
//
// Five checker families:
//
//  1. Interval energy conservation: each integrated interval's battery
//     delta equals the interval's attributed sum within an epsilon, and
//     the cumulative ledger total tracks cumulative battery drain.
//  2. Battery monotonicity and bounds: drained energy never decreases
//     and stays within [0, capacity]; the charge percentage stays in
//     [0, 100].
//  3. Lifecycle legality: no activity leaves Destroyed, hook-observed
//     transitions are continuous, and no destroyed activity or stopped
//     service still holds hardware demand.
//  4. Aggregator consistency: the per-UID CPU sums cached by
//     hw.Aggregator equal the sums recomputed from its live entries,
//     and the meter's clamped view matches.
//  5. Differential oracle: a PowerTutor-style SampledAccountant runs
//     alongside the exact Accountant on the same engine, and at Finish
//     the sampling error must stay inside the paper's error envelope.
//
// Every device carries a checker unless its config says
// Options.Disabled: device.New builds families 1–4 for a nil
// Config.Checks. A nil *Checker is the disabled state and every hook
// no-ops on it. Violations are recorded as structured Violation values,
// mirrored into telemetry events, and — with Options.FailFast —
// injected into the engine so the Run variant in flight returns a
// *ViolationError.
package check

import (
	"fmt"

	"repro/internal/accounting"
	"repro/internal/activity"
	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Invariant identifies which checker family a violation belongs to.
type Invariant uint8

// Checker families.
const (
	// InvConservation is interval / cumulative energy conservation.
	InvConservation Invariant = iota + 1
	// InvBatteryMonotonic is battery drain monotonicity.
	InvBatteryMonotonic
	// InvBatteryBounds is battery drain / percentage range legality.
	InvBatteryBounds
	// InvLifecycle is activity/service lifecycle legality.
	InvLifecycle
	// InvAggregator is hw.Aggregator sum consistency.
	InvAggregator
	// InvDifferential is the sampled-vs-exact error envelope.
	InvDifferential
)

func (i Invariant) String() string {
	switch i {
	case InvConservation:
		return "conservation"
	case InvBatteryMonotonic:
		return "battery-monotonic"
	case InvBatteryBounds:
		return "battery-bounds"
	case InvLifecycle:
		return "lifecycle"
	case InvAggregator:
		return "aggregator"
	case InvDifferential:
		return "differential"
	}
	return fmt.Sprintf("Invariant(%d)", int(i))
}

// Violation is one detected invariant breach.
type Violation struct {
	// T is the virtual instant the breach was detected.
	T sim.Time
	// Invariant names the checker family.
	Invariant Invariant
	// Detail is a human-readable description of the breach.
	Detail string
	// Got and Want are the compared quantities, when numeric.
	Got, Want float64
	// Epsilon is the tolerance the comparison used, when numeric.
	Epsilon float64
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] %s (got %g, want %g ± %g)",
		v.T, v.Invariant, v.Detail, v.Got, v.Want, v.Epsilon)
}

// ViolationError wraps the first violation when Options.FailFast is set;
// Engine.RunUntil (and kin) surface it.
type ViolationError struct {
	V Violation
}

func (e *ViolationError) Error() string {
	return "check: invariant violated: " + e.V.String()
}

// Checker tolerances and bounds.
const (
	// Epsilon is the absolute per-interval conservation tolerance in
	// joules — far below any single integrated segment, far above
	// float64 accumulation noise.
	Epsilon = 1e-6
	// RelEpsilon is the additional relative slack the cumulative
	// ledger-vs-battery comparison gets: the two totals accumulate the
	// same energy in different summation orders, so they drift apart by
	// a few ulps per segment.
	RelEpsilon = 1e-9
	// ErrorEnvelope bounds the differential oracle: the paper's
	// related-work survey puts sampling-profiler error "as high as
	// about 20%", so a sampled total further than 25% from the exact
	// total indicates an oracle bug, not expected sampling error.
	ErrorEnvelope = 0.25
	// DefaultMaxViolations bounds the recorded slice so a systemic
	// breach (one violation per interval over a long horizon) cannot
	// balloon memory; further violations are counted, not stored.
	DefaultMaxViolations = 1000
	// MinDifferentialJ is the smallest exact total the envelope is
	// asserted against: below it the relative error's denominator is
	// noise-dominated.
	MinDifferentialJ = 1.0
)

// Options configures a Checker. The zero value enables checker families
// 1–4, recording violations passively; it is what a device gets when
// its Config.Checks is nil.
type Options struct {
	// Disabled builds no checker at all: the one way to run a device
	// unchecked. Measurements that price something other than the
	// checker set it, as do the CLIs under -check=false.
	Disabled bool
	// FailFast injects the first violation into the engine, so the Run
	// variant in flight returns a *ViolationError instead of recording
	// passively.
	FailFast bool
	// Differential enables family 5: a SampledAccountant polling at
	// accounting.DefaultSamplePeriod (1 Hz), with ErrorEnvelope asserted
	// at Finish. Off by default because the sampling ticker adds events
	// to the engine's stream, which changes event-level goldens.
	Differential bool
}

// Ledger is the cumulative total the conservation checker compares
// against battery drain; *accounting.Accountant satisfies it. Tests
// substitute mutated ledgers to prove the checker catches
// mis-attribution.
type Ledger interface {
	TotalJ() float64
}

// Deps are the substrates a Checker observes. Engine, Battery, Meter,
// Aggregator and Ledger are required; Packages only when Differential
// is set; Telemetry is optional.
type Deps struct {
	Engine     *sim.Engine
	Battery    *hw.Battery
	Meter      *hw.Meter
	Aggregator *hw.Aggregator
	Ledger     Ledger
	Packages   *app.PackageManager
	Telemetry  *telemetry.Recorder
}

// Checker observes a device through the meter's sink interface and the
// activity/service manager hooks. It is single-goroutine, like the
// engine it checks. A nil Checker is valid and checks nothing.
type Checker struct {
	opts Options
	deps Deps

	// sampled is the differential oracle, nil unless Options.Differential.
	sampled *accounting.SampledAccountant

	// lastDrained is the battery reading after the previous interval.
	lastDrained float64
	// states tracks each live activity's last hook-observed state.
	states map[*activity.Activity]activity.State

	violations []Violation
	dropped    int
	failed     bool
	finished   bool
}

// New builds a checker. The caller wires it in: meter.AddSink (last, so
// the exact accountant's ledger is settled before the cumulative
// comparison runs), activities.AddHooks, services.AddHooks.
func New(opts Options, deps Deps) (*Checker, error) {
	if deps.Engine == nil || deps.Battery == nil || deps.Meter == nil ||
		deps.Aggregator == nil || deps.Ledger == nil {
		return nil, fmt.Errorf("check: nil dependency")
	}
	c := &Checker{
		opts:        opts,
		deps:        deps,
		lastDrained: deps.Battery.DrainedJ(),
		states:      make(map[*activity.Activity]activity.State),
	}
	if opts.Differential {
		if deps.Packages == nil {
			return nil, fmt.Errorf("check: differential oracle needs Packages")
		}
		s, err := accounting.NewSampled(deps.Engine, deps.Meter, deps.Packages, accounting.DefaultSamplePeriod)
		if err != nil {
			return nil, err
		}
		c.sampled = s
		s.Start()
	}
	return c, nil
}

// report records one violation: bounded slice, telemetry mirror, and —
// under FailFast — engine injection (first violation only).
func (c *Checker) report(inv Invariant, detail string, got, want, eps float64) {
	v := Violation{
		T:         c.deps.Engine.Now(),
		Invariant: inv,
		Detail:    detail,
		Got:       got,
		Want:      want,
		Epsilon:   eps,
	}
	if len(c.violations) < DefaultMaxViolations {
		c.violations = append(c.violations, v)
	} else {
		c.dropped++
	}
	c.deps.Telemetry.RecordViolation(v.T, inv.String(), detail, got, want)
	if c.opts.FailFast && !c.failed {
		c.failed = true
		c.deps.Engine.Fail(&ViolationError{V: v})
	}
}

// Violations returns a copy of the recorded violations.
func (c *Checker) Violations() []Violation {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Dropped reports how many violations exceeded DefaultMaxViolations and
// were counted but not stored.
func (c *Checker) Dropped() int {
	if c == nil {
		return 0
	}
	return c.dropped
}

// Sampled exposes the differential oracle, nil unless Differential.
func (c *Checker) Sampled() *accounting.SampledAccountant {
	if c == nil {
		return nil
	}
	return c.sampled
}

// Accrue implements hw.Sink: checker families 1 and 2 run on every
// integrated interval. The meter drains the battery before calling
// sinks, so the battery delta observed here is exactly the interval
// under inspection.
func (c *Checker) Accrue(iv hw.Interval) {
	if c == nil {
		return
	}
	drained := c.deps.Battery.DrainedJ()
	capJ := c.deps.Battery.CapacityJ()

	// Family 2: monotonicity and bounds.
	if drained < c.lastDrained {
		c.report(InvBatteryMonotonic, "battery drained energy decreased", drained, c.lastDrained, 0)
	}
	if drained < 0 || drained > capJ {
		c.report(InvBatteryBounds, "battery drained energy out of [0, capacity]", drained, capJ, 0)
	}
	if pct := c.deps.Battery.Percent(); pct < 0 || pct > 100 {
		c.report(InvBatteryBounds, "battery percentage out of [0, 100]", pct, 0, 0)
	}

	// Family 1, per interval: battery ΔJ == interval attribution sum.
	// Skipped once the battery is dead: Drain clamps at capacity, so a
	// depleted battery legitimately absorbs less than the attributed sum.
	if !c.deps.Battery.Dead() {
		sum := intervalSum(iv)
		delta := drained - c.lastDrained
		if diff := abs(delta - sum); diff > Epsilon {
			c.report(InvConservation,
				fmt.Sprintf("interval [%v, %v] battery delta != attributed sum", iv.From, iv.To),
				delta, sum, Epsilon)
		}
		// Family 1, cumulative: the exact ledger tracks total drain. The
		// checker is the last sink, so the ledger has already consumed
		// this interval.
		ledger := c.deps.Ledger.TotalJ()
		tol := Epsilon + float64(RelEpsilon*drained)
		if diff := abs(ledger - drained); diff > tol {
			c.report(InvConservation, "cumulative ledger total != battery drained",
				ledger, drained, tol)
		}
	}
	c.lastDrained = drained
}

// intervalSum adds up everything the interval attributes: per-UID usage
// (the dense table iterates in sorted UID order, so the sum is
// reproducible without re-collecting keys), screen and system.
func intervalSum(iv hw.Interval) float64 {
	return iv.AppsTotalJ() + iv.ScreenJ + iv.SystemJ
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Finish runs the end-of-run checks — a final aggregator audit and the
// differential envelope — and returns every recorded violation. It is
// idempotent: the first call stops the differential oracle (flushing
// its final partial period) and later calls just return the slice.
func (c *Checker) Finish() []Violation {
	if c == nil {
		return nil
	}
	if !c.finished {
		c.finished = true
		c.deps.Meter.Flush()
		c.auditAggregator()
		if c.sampled != nil {
			c.sampled.Stop()
			exact := c.deps.Ledger.TotalJ()
			if exact >= MinDifferentialJ {
				if re := accounting.RelativeError(c.sampled.TotalJ(), exact); re > ErrorEnvelope {
					c.report(InvDifferential, "sampled total outside the exact-accounting error envelope",
						c.sampled.TotalJ(), exact, ErrorEnvelope*exact)
				}
			}
		}
	}
	return c.Violations()
}

// auditAggregator runs checker family 4.
func (c *Checker) auditAggregator() {
	if err := c.deps.Aggregator.Audit(); err != nil {
		c.report(InvAggregator, err.Error(), 0, 0, 0)
	}
}
