package check_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/activity"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/intent"
	"repro/internal/scenario"
)

// checkedWorld builds the demo cast on a device with the given checker
// options (EANDROID_CHECK is pinned off so the ambient environment
// cannot interfere with the A/B under test).
func checkedWorld(t *testing.T, opts *check.Options) *scenario.World {
	t.Helper()
	t.Setenv("EANDROID_CHECK", "off")
	w, err := scenario.NewWorld(device.Config{EAndroid: true, Checks: opts})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// mustClean fails the test if the device's checker recorded anything.
func mustClean(t *testing.T, w *scenario.World) {
	t.Helper()
	if vs := w.Dev.FinishChecks(); len(vs) > 0 {
		t.Fatalf("%d violations, first: %v", len(vs), vs[0])
	}
}

// TestScenariosCleanUnderPassiveChecks runs every scripted scene and
// attack with checker families 1-4 enabled: a healthy simulator must
// conserve energy and keep its lifecycle/aggregator state consistent
// through all of them.
func TestScenariosCleanUnderPassiveChecks(t *testing.T) {
	cases := []struct {
		name string
		run  func(*scenario.World) error
	}{
		{"scene1", (*scenario.World).Scene1MessageFilm},
		{"scene2", (*scenario.World).Scene2ContactsChain},
		{"attack1", func(w *scenario.World) error { return w.Attack1ComponentHijack(5 * time.Minute) }},
		{"attack2", func(w *scenario.World) error { return w.Attack2BackgroundApps(5 * time.Minute) }},
		{"attack3", func(w *scenario.World) error { return w.Attack3ServicePin(5 * time.Minute) }},
		{"attack4", func(w *scenario.World) error { return w.Attack4InterruptQuit(5 * time.Minute) }},
		{"attack5", func(w *scenario.World) error { return w.Attack5Brightness(time.Minute, 5*time.Minute) }},
		{"attack6", func(w *scenario.World) error { return w.Attack6WakelockScreen(5 * time.Minute) }},
		{"stealth", func(w *scenario.World) error { return w.StealthAutoLaunch(5 * time.Minute) }},
		{"combined", func(w *scenario.World) error { return w.CombinedAttack(5 * time.Minute) }},
		{"multi-collateral", (*scenario.World).MultiCollateral},
		{"hybrid-chain", (*scenario.World).HybridChain},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := checkedWorld(t, &check.Options{})
			if w.Dev.Checker == nil {
				t.Fatal("checker not attached")
			}
			if err := tc.run(w); err != nil {
				t.Fatal(err)
			}
			mustClean(t, w)
		})
	}
}

// TestDifferentialEnvelopeOnAttacks runs the six attacks with the
// shadow sampled accountant and asserts the paper's claim: sampling
// error is real but bounded — the sampled total stays inside the error
// envelope of the exact total.
func TestDifferentialEnvelopeOnAttacks(t *testing.T) {
	cases := []struct {
		name string
		run  func(*scenario.World) error
	}{
		{"attack1", func(w *scenario.World) error { return w.Attack1ComponentHijack(10 * time.Minute) }},
		{"attack2", func(w *scenario.World) error { return w.Attack2BackgroundApps(10 * time.Minute) }},
		{"attack3", func(w *scenario.World) error { return w.Attack3ServicePin(10 * time.Minute) }},
		{"attack4", func(w *scenario.World) error { return w.Attack4InterruptQuit(10 * time.Minute) }},
		{"attack5", func(w *scenario.World) error { return w.Attack5Brightness(time.Minute, 10*time.Minute) }},
		{"attack6", func(w *scenario.World) error { return w.Attack6WakelockScreen(10 * time.Minute) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := checkedWorld(t, &check.Options{Differential: true})
			if err := tc.run(w); err != nil {
				t.Fatal(err)
			}
			mustClean(t, w)
			// The envelope held; report the actual sampling error so a
			// -v run doubles as a small accuracy study.
			exact := w.Dev.Android.TotalJ()
			sampled := w.Dev.Checker.Sampled().TotalJ()
			re := accounting.RelativeError(sampled, exact)
			if exact >= check.MinDifferentialJ && re > check.ErrorEnvelope {
				t.Fatalf("relative error %.4f above envelope %.2f (sampled %v, exact %v)",
					re, check.ErrorEnvelope, sampled, exact)
			}
			t.Logf("sampled %.3f J vs exact %.3f J: relative error %.4f", sampled, exact, re)
		})
	}
}

// mutatedDevice builds an unchecked device, registers a sink that
// corrupts every interval's attribution (adding energy to a UID that
// never earned it), then wires a checker AFTER the corrupter — the
// seeded-mutation half of the oracle test: a checker that cannot catch
// a deliberately broken ledger proves nothing.
func mutatedDevice(t *testing.T, opts check.Options) (*device.Device, *check.Checker) {
	t.Helper()
	t.Setenv("EANDROID_CHECK", "off")
	dev, err := device.New(device.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev.Meter.AddSink(hw.SinkFunc(func(iv hw.Interval) {
		if iv.Duration() > 0 {
			// Rows on a borrowed interval mutate the shared table — the
			// corruption the checker must catch.
			iv.Row(9999).Add(hw.CPU, 0.5)
		}
	}))
	ck, err := check.New(opts, check.Deps{
		Engine:     dev.Engine,
		Battery:    dev.Battery,
		Meter:      dev.Meter,
		Aggregator: dev.Aggregator,
		Ledger:     dev.Android,
		Packages:   dev.Packages,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev.Meter.AddSink(ck)
	return dev, ck
}

func TestMutatedIntervalCaughtByConservation(t *testing.T) {
	dev, ck := mutatedDevice(t, check.Options{})
	if err := dev.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	dev.Flush()
	vs := ck.Finish()
	if len(vs) == 0 {
		t.Fatal("mis-attributed intervals went undetected")
	}
	found := false
	for _, v := range vs {
		if v.Invariant == check.InvConservation && strings.Contains(v.Detail, "interval") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no per-interval conservation violation among %d violations, first: %v", len(vs), vs[0])
	}
}

func TestFailFastSurfacesViolationError(t *testing.T) {
	dev, _ := mutatedDevice(t, check.Options{FailFast: true})
	err := dev.Run(time.Minute)
	if err == nil {
		t.Fatal("fail-fast run returned nil on a corrupted device")
	}
	var ve *check.ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *check.ViolationError", err)
	}
	if ve.V.Invariant != check.InvConservation {
		t.Fatalf("violation family = %v, want conservation", ve.V.Invariant)
	}
}

// skimmingLedger under-reports the exact accountant's total — the
// "energy quietly disappears from the books" mutation.
type skimmingLedger struct{ acc *accounting.Accountant }

func (s skimmingLedger) TotalJ() float64 { return s.acc.TotalJ() * 0.9 }

func TestSkimmingLedgerCaughtByCumulativeConservation(t *testing.T) {
	t.Setenv("EANDROID_CHECK", "off")
	dev, err := device.New(device.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := check.New(check.Options{}, check.Deps{
		Engine:     dev.Engine,
		Battery:    dev.Battery,
		Meter:      dev.Meter,
		Aggregator: dev.Aggregator,
		Ledger:     skimmingLedger{dev.Android},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev.Meter.AddSink(ck)
	if err := dev.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	dev.Flush()
	vs := ck.Finish()
	found := false
	for _, v := range vs {
		if v.Invariant == check.InvConservation && strings.Contains(v.Detail, "cumulative") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("skimmed ledger went undetected (%d violations)", len(vs))
	}
}

func TestEnvDrivesCheckerConstruction(t *testing.T) {
	t.Setenv("EANDROID_CHECK", "1")
	dev, err := device.New(device.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dev.Checker == nil {
		t.Fatal("EANDROID_CHECK=1 did not attach a checker")
	}

	t.Setenv("EANDROID_CHECK", "off")
	dev, err = device.New(device.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dev.Checker != nil {
		t.Fatal("EANDROID_CHECK=off still attached a checker")
	}
	if vs := dev.FinishChecks(); vs != nil {
		t.Fatalf("unchecked device returned violations: %v", vs)
	}

	// An explicit Disabled config beats the environment: benchmark
	// baselines must stay unchecked under EANDROID_CHECK=1.
	t.Setenv("EANDROID_CHECK", "1")
	dev, err = device.New(device.Config{Checks: &check.Options{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if dev.Checker != nil {
		t.Fatal("Options.Disabled did not override EANDROID_CHECK=1")
	}
}

// TestLifecycleViolationsDetected drives the family-3 hooks directly
// with illegal transitions — the managers never produce these, so the
// only way to prove the assertions live is to call the hook interface
// the way a broken manager would.
func TestLifecycleViolationsDetected(t *testing.T) {
	w := checkedWorld(t, &check.Options{})
	ck := w.Dev.Checker
	a, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	before := len(ck.Violations())

	// Leaving Destroyed is never legal.
	ck.Lifecycle(w.Dev.Engine.Now(), a, activity.Destroyed, activity.Resumed)
	vs := ck.Violations()
	if len(vs) <= before {
		t.Fatal("Destroyed->Resumed transition went undetected")
	}
	sawLeft, sawDiscontinuous := false, false
	for _, v := range vs[before:] {
		if v.Invariant != check.InvLifecycle {
			t.Fatalf("unexpected family %v: %v", v.Invariant, v)
		}
		if strings.Contains(v.Detail, "left Destroyed") {
			sawLeft = true
		}
		if strings.Contains(v.Detail, "discontinuous") {
			sawDiscontinuous = true
		}
	}
	if !sawLeft {
		t.Fatal("no left-Destroyed violation recorded")
	}
	// The activity is actually Resumed, so claiming its old state was
	// Destroyed is also a continuity break.
	if !sawDiscontinuous {
		t.Fatal("no continuity violation recorded")
	}
}

func TestServiceRunningMismatchDetected(t *testing.T) {
	w := checkedWorld(t, &check.Options{})
	ck := w.Dev.Checker
	svc, err := w.Dev.Services.Start(intent.Intent{
		Sender:    w.Victim.UID,
		Component: scenario.PkgVictim + "/Work",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	before := len(ck.Violations())

	// A hook claiming the running service stopped contradicts both the
	// record and the aggregator entry it still holds.
	ck.ServiceRunning(w.Dev.Engine.Now(), svc, false)
	vs := ck.Violations()
	if len(vs) < before+2 {
		t.Fatalf("want >=2 new violations (record mismatch + demand mismatch), got %d", len(vs)-before)
	}
	for _, v := range vs[before:] {
		if v.Invariant != check.InvLifecycle {
			t.Fatalf("unexpected family %v: %v", v.Invariant, v)
		}
	}
}

func TestMaxViolationsBoundsStorage(t *testing.T) {
	w := checkedWorld(t, &check.Options{MaxViolations: 2})
	ck := w.Dev.Checker
	a, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ck.Lifecycle(w.Dev.Engine.Now(), a, activity.Destroyed, activity.Resumed)
	}
	if got := len(ck.Violations()); got != 2 {
		t.Fatalf("stored %d violations, want the MaxViolations bound 2", got)
	}
	if ck.Dropped() == 0 {
		t.Fatal("overflow violations were not counted as dropped")
	}
}

func TestNilCheckerIsInert(t *testing.T) {
	var ck *check.Checker
	ck.Accrue(hw.Interval{})
	ck.Lifecycle(0, nil, activity.Resumed, activity.Paused)
	ck.ServiceRunning(0, nil, false)
	if vs := ck.Finish(); vs != nil {
		t.Fatalf("nil checker returned violations: %v", vs)
	}
	if ck.Violations() != nil || ck.Dropped() != 0 || ck.Sampled() != nil {
		t.Fatal("nil checker accessors not inert")
	}
}

func TestDifferentialNeedsPackages(t *testing.T) {
	t.Setenv("EANDROID_CHECK", "off")
	dev, err := device.New(device.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = check.New(check.Options{Differential: true}, check.Deps{
		Engine:     dev.Engine,
		Battery:    dev.Battery,
		Meter:      dev.Meter,
		Aggregator: dev.Aggregator,
		Ledger:     dev.Android,
	})
	if err == nil {
		t.Fatal("differential checker built without a package manager")
	}
}
