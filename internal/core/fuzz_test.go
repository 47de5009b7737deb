package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/display"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/power"
)

// fuzzWorld is a device with N small apps, each with activities and a
// service, used to drive random event streams at the monitor.
type fuzzWorld struct {
	dev  *device.Device
	raw  *rawLedger
	apps []*app.App

	// live resources the random driver can release later.
	conns []*fuzzConn
	locks []*power.Wakelock
}

type fuzzConn struct {
	conn interface {
		Bound() bool
	}
	unbind func() error
}

func newFuzzWorld(t testing.TB, nApps int) *fuzzWorld {
	t.Helper()
	dev, err := device.New(device.Config{EAndroid: true})
	if err != nil {
		t.Fatal(err)
	}
	w := &fuzzWorld{dev: dev, raw: attachRawLedger(dev)}
	for i := 0; i < nApps; i++ {
		pkg := fmt.Sprintf("com.fuzz.app%d", i)
		a := dev.Packages.MustInstall(manifest.NewBuilder(pkg, fmt.Sprintf("Fuzz%d", i)).
			Permission(manifest.PermWakeLock, manifest.PermWriteSettings).
			Activity("Main", true).
			Activity("Second", true).
			Service("Svc", true).
			MustBuild())
		if err := a.SetWorkload("Main", app.Workload{
			CPUActive: 0.1 + 0.05*float64(i), CPUBackground: 0.02,
		}); err != nil {
			t.Fatal(err)
		}
		if err := a.SetWorkload("Svc", app.Workload{CPUActive: 0.15}); err != nil {
			t.Fatal(err)
		}
		w.apps = append(w.apps, a)
	}
	return w
}

// step performs one random framework operation; errors from illegal
// sequencing (double release etc.) are expected and swallowed — the
// invariants must hold regardless.
func (w *fuzzWorld) step(rng *rand.Rand) {
	dev := w.dev
	pick := func() *app.App { return w.apps[rng.Intn(len(w.apps))] }
	switch rng.Intn(14) {
	case 0:
		_, _ = dev.Activities.UserStartApp(pick().Package())
	case 1:
		a, b := pick(), pick()
		comp := "Main"
		if rng.Intn(2) == 0 {
			comp = "Second"
		}
		_, _ = dev.Activities.StartActivity(intent.Intent{
			Sender:    a.UID,
			Component: b.Package() + "/" + comp,
		})
	case 2:
		if rng.Intn(2) == 0 {
			dev.Activities.Home(app.UIDSystem)
		} else {
			dev.Activities.Home(pick().UID)
		}
	case 3:
		_ = dev.Activities.MoveAppToFront(pick().UID, pick().Package())
	case 4:
		dev.Activities.Back()
	case 5:
		a, b := pick(), pick()
		_, _ = dev.Services.Start(intent.Intent{
			Sender:    a.UID,
			Component: b.Package() + "/Svc",
		})
	case 6:
		_ = dev.Services.Stop(pick().UID, pick().Package()+"/Svc")
	case 7:
		a, b := pick(), pick()
		conn, err := dev.Services.Bind(intent.Intent{
			Sender:    a.UID,
			Component: b.Package() + "/Svc",
		})
		if err == nil {
			w.conns = append(w.conns, &fuzzConn{
				conn:   conn,
				unbind: func() error { return dev.Services.Unbind(conn) },
			})
		}
	case 8:
		if len(w.conns) > 0 {
			i := rng.Intn(len(w.conns))
			_ = w.conns[i].unbind()
		}
	case 9:
		typ := power.Partial
		if rng.Intn(2) == 0 {
			typ = power.ScreenBright
		}
		wl, err := dev.Power.Acquire(pick().UID, typ, "fuzz")
		if err == nil {
			w.locks = append(w.locks, wl)
		}
	case 10:
		if len(w.locks) > 0 {
			i := rng.Intn(len(w.locks))
			_ = w.locks[i].Release()
		}
	case 11:
		src := display.SourceApp
		by := pick().UID
		if rng.Intn(3) == 0 {
			src, by = display.SourceSystemUI, app.UIDSystem
		}
		_ = dev.Display.SetBrightness(by, src, rng.Intn(256))
	case 12:
		mode := display.Manual
		if rng.Intn(2) == 0 {
			mode = display.Auto
		}
		_ = dev.Display.SetMode(pick().UID, display.SourceApp, mode)
	case 13:
		a := pick()
		if rng.Intn(4) == 0 {
			a.Kill()
		} else if !a.Alive() {
			a.Revive()
		}
	}
	_ = dev.Run(time.Duration(rng.Intn(20)+1) * time.Second)
}

type fuzzOutcome struct {
	drainedJ   float64
	accTotalJ  float64
	collateral map[app.UID]map[app.UID]float64
	attacks    int
	active     int
}

func runFuzz(t testing.TB, seed int64, steps int) fuzzOutcome {
	t.Helper()
	w := newFuzzWorld(t, 4)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		w.step(rng)
	}
	w.dev.Flush()
	out := fuzzOutcome{
		drainedJ:   w.dev.Battery.DrainedJ(),
		accTotalJ:  w.dev.Android.TotalJ(),
		collateral: make(map[app.UID]map[app.UID]float64),
		attacks:    len(w.dev.EAndroid.Attacks()),
		active:     len(w.dev.EAndroid.ActiveAttacks()),
	}
	for _, a := range w.apps {
		m := make(map[app.UID]float64)
		for _, e := range w.dev.EAndroid.CollateralMap(a.UID) {
			m[e.Driven] = e.EnergyJ
		}
		out.collateral[a.UID] = m
	}

	// Invariant: accounting conserves energy.
	if math.Abs(out.drainedJ-out.accTotalJ) > 1e-6 {
		t.Fatalf("seed %d: accountant %.9f J != battery %.9f J",
			seed, out.accTotalJ, out.drainedJ)
	}
	// Invariant: collateral charged for a driven party never exceeds
	// that party's total own energy (or the screen total).
	for g, m := range out.collateral {
		for d, j := range m {
			var limit float64
			if d == app.UIDScreen {
				limit = w.raw.screenJ
			} else {
				limit = w.raw.appJ[d]
			}
			if j > limit+1e-6 {
				t.Fatalf("seed %d: map[%d][%d] = %.6f exceeds driven total %.6f",
					seed, g, d, j, limit)
			}
		}
	}
	// Invariant: attack records are well-formed.
	for _, a := range w.dev.EAndroid.Attacks() {
		if !a.Active && a.End < a.Begin {
			t.Fatalf("seed %d: attack %v ends before it begins", seed, a)
		}
		if a.Driving == a.Driven {
			t.Fatalf("seed %d: self-attack %v", seed, a)
		}
	}
	return out
}

func TestFuzzMonitorInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		runFuzz(t, seed, 60)
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		a := runFuzz(t, seed, 80)
		b := runFuzz(t, seed, 80)
		if a.drainedJ != b.drainedJ || a.attacks != b.attacks || a.active != b.active {
			t.Fatalf("seed %d: nondeterministic run: %+v vs %+v", seed, a, b)
		}
		for g, m := range a.collateral {
			for d, j := range m {
				if b.collateral[g][d] != j {
					t.Fatalf("seed %d: map[%d][%d] differs: %v vs %v",
						seed, g, d, j, b.collateral[g][d])
				}
			}
		}
	}
}

var _ = core.Complete // keep the core import for future assertions
