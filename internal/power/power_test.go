package power

import (
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/sim"
)

type recorder struct {
	acquired []string
	released []string
	screen   []string
}

func (r *recorder) WakelockAcquired(t sim.Time, wl *Wakelock) {
	r.acquired = append(r.acquired, wl.Tag)
}

func (r *recorder) WakelockReleased(t sim.Time, wl *Wakelock, cause ReleaseCause) {
	r.released = append(r.released, wl.Tag+":"+cause.String())
}

func (r *recorder) ScreenChanged(t sim.Time, on bool, cause ScreenCause) {
	state := "off"
	if on {
		state = "on"
	}
	r.screen = append(r.screen, state+":"+cause.String())
}

func fixture(t *testing.T) (*sim.Engine, *hw.Meter, *app.PackageManager, *Manager, *recorder) {
	t.Helper()
	e := sim.NewEngine()
	b, err := hw.NewBattery(hw.NexusBatteryJ)
	if err != nil {
		t.Fatal(err)
	}
	meter, err := hw.NewMeter(e.Now, hw.Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	pm := app.NewPackageManager()
	mgr, err := NewManager(e, meter, pm)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	mgr.AddHooks(rec)
	return e, meter, pm, mgr, rec
}

func installHolder(t *testing.T, pm *app.PackageManager, pkg string) *app.App {
	t.Helper()
	return pm.MustInstall(manifest.NewBuilder(pkg, pkg).
		Permission(manifest.PermWakeLock).
		Activity("Main", true).
		MustBuild())
}

func TestScreenStartsOnAndTimesOut(t *testing.T) {
	e, meter, _, mgr, rec := fixture(t)
	if !mgr.ScreenOn() || !meter.ScreenOn() {
		t.Fatal("screen should start on")
	}
	if err := e.RunFor(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mgr.ScreenOn() || meter.ScreenOn() {
		t.Fatal("screen should time out after 30s")
	}
	if len(rec.screen) == 0 || rec.screen[len(rec.screen)-1] != "off:timeout" {
		t.Fatalf("screen events = %v", rec.screen)
	}
	// With no wakelocks and screen off the platform suspends.
	if !meter.Suspended() {
		t.Fatal("platform should suspend")
	}
}

func TestUserActivityResetsTimeout(t *testing.T) {
	e, _, _, mgr, _ := fixture(t)
	if err := e.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	mgr.UserActivity()
	if err := e.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !mgr.ScreenOn() {
		t.Fatal("user activity should have reset the timeout")
	}
	if err := e.RunFor(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mgr.ScreenOn() {
		t.Fatal("screen should be off 30s after last activity")
	}
}

func TestUserActivityWakesDevice(t *testing.T) {
	e, meter, _, mgr, _ := fixture(t)
	if err := e.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !meter.Suspended() {
		t.Fatal("precondition: suspended")
	}
	mgr.UserActivity()
	if meter.Suspended() || !mgr.ScreenOn() {
		t.Fatal("user activity should wake device and screen")
	}
}

func TestAcquireRequiresPermission(t *testing.T) {
	_, _, pm, mgr, _ := fixture(t)
	noPerm := pm.MustInstall(manifest.NewBuilder("com.noperm", "NoPerm").
		Activity("Main", true).MustBuild())
	if _, err := mgr.Acquire(noPerm.UID, Partial, "x"); err == nil ||
		!strings.Contains(err.Error(), manifest.PermWakeLock) {
		t.Fatalf("err = %v, want permission failure", err)
	}
}

func TestSystemAppBypassesPermission(t *testing.T) {
	_, _, pm, mgr, _ := fixture(t)
	sys, err := pm.InstallSystem(manifest.NewBuilder("android.systemui", "SystemUI").
		Activity("Main", true).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Acquire(sys.UID, Partial, "sys"); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireErrors(t *testing.T) {
	_, _, pm, mgr, _ := fixture(t)
	a := installHolder(t, pm, "com.a")
	if _, err := mgr.Acquire(999, Partial, "x"); err == nil {
		t.Fatal("unknown uid accepted")
	}
	if _, err := mgr.Acquire(a.UID, WakelockType(9), "x"); err == nil {
		t.Fatal("invalid type accepted")
	}
	a.Kill()
	if _, err := mgr.Acquire(a.UID, Partial, "x"); err == nil {
		t.Fatal("dead process accepted")
	}
}

func TestPartialWakelockPreventsSuspendNotScreenOff(t *testing.T) {
	e, meter, pm, mgr, _ := fixture(t)
	a := installHolder(t, pm, "com.a")
	wl, err := mgr.Acquire(a.UID, Partial, "work")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mgr.ScreenOn() {
		t.Fatal("partial lock must not keep screen on")
	}
	if meter.Suspended() {
		t.Fatal("partial lock must prevent suspend")
	}
	if err := wl.Release(); err != nil {
		t.Fatal(err)
	}
	if !meter.Suspended() {
		t.Fatal("release with screen off should suspend")
	}
}

func TestScreenWakelockForcesScreenOn(t *testing.T) {
	e, _, pm, mgr, rec := fixture(t)
	a := installHolder(t, pm, "com.a")
	// Let the screen time out first.
	if err := e.RunFor(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mgr.ScreenOn() {
		t.Fatal("precondition: screen off")
	}
	wl, err := mgr.Acquire(a.UID, ScreenBright, "video")
	if err != nil {
		t.Fatal(err)
	}
	if !mgr.ScreenOn() {
		t.Fatal("screen wakelock should light the screen")
	}
	found := false
	for _, s := range rec.screen {
		if s == "on:wakelock" {
			found = true
		}
	}
	if !found {
		t.Fatalf("screen events = %v, want on:wakelock", rec.screen)
	}
	// Screen stays on well past the timeout while held.
	if err := e.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !mgr.ScreenOn() {
		t.Fatal("screen should stay on while wakelock held")
	}
	if err := wl.Release(); err != nil {
		t.Fatal(err)
	}
	// After release the timeout eventually turns it off.
	if err := e.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if mgr.ScreenOn() {
		t.Fatal("screen should time out after release")
	}
}

func TestDoubleReleaseErrors(t *testing.T) {
	_, _, pm, mgr, _ := fixture(t)
	a := installHolder(t, pm, "com.a")
	wl, err := mgr.Acquire(a.UID, Partial, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Release(); err != nil {
		t.Fatal(err)
	}
	if err := wl.Release(); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestLinkToDeathReleasesWakelock(t *testing.T) {
	_, meter, pm, mgr, rec := fixture(t)
	a := installHolder(t, pm, "com.a")
	wl, err := mgr.Acquire(a.UID, Partial, "leak")
	if err != nil {
		t.Fatal(err)
	}
	a.Kill()
	if wl.Held() {
		t.Fatal("death should release wakelock")
	}
	want := "leak:link-to-death"
	if len(rec.released) != 1 || rec.released[0] != want {
		t.Fatalf("released = %v, want [%s]", rec.released, want)
	}
	_ = meter
}

func TestHeldByAndAnyLock(t *testing.T) {
	_, _, pm, mgr, _ := fixture(t)
	a := installHolder(t, pm, "com.a")
	b := installHolder(t, pm, "com.b")
	if mgr.AnyLock() {
		t.Fatal("no locks yet")
	}
	w1, _ := mgr.Acquire(a.UID, Partial, "zz")
	w2, _ := mgr.Acquire(a.UID, ScreenBright, "aa")
	if _, err := mgr.Acquire(b.UID, Partial, "bb"); err != nil {
		t.Fatal(err)
	}
	locks := mgr.HeldBy(a.UID)
	if len(locks) != 2 || locks[0].Tag != "aa" || locks[1].Tag != "zz" {
		t.Fatalf("HeldBy = %+v", locks)
	}
	if !mgr.AnyScreenLock() {
		t.Fatal("screen lock held")
	}
	_ = w1.Release()
	_ = w2.Release()
	if mgr.AnyScreenLock() {
		t.Fatal("screen lock released")
	}
	if !mgr.AnyLock() {
		t.Fatal("b still holds a lock")
	}
}

func TestNoSleepBugDrainsEnergy(t *testing.T) {
	// The paper's core wakelock hazard: an unreleased partial wakelock
	// keeps the platform at idle-awake draw instead of suspend draw.
	e, meter, pm, mgr, _ := fixture(t)
	a := installHolder(t, pm, "com.leaky")
	if _, err := mgr.Acquire(a.UID, Partial, "never-released"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	meter.Flush()
	drainWith := meter.Battery().DrainedJ()

	// Same hour without the lock.
	e2 := sim.NewEngine()
	b2, _ := hw.NewBattery(hw.NexusBatteryJ)
	m2, _ := hw.NewMeter(e2.Now, hw.Nexus4(), b2)
	pm2 := app.NewPackageManager()
	if _, err := NewManager(e2, m2, pm2); err != nil {
		t.Fatal(err)
	}
	if err := e2.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	m2.Flush()
	drainWithout := b2.DrainedJ()

	if drainWith < 2*drainWithout {
		t.Fatalf("no-sleep bug drain %v should far exceed %v", drainWith, drainWithout)
	}
}

func TestSetScreenTimeout(t *testing.T) {
	e, _, _, mgr, _ := fixture(t)
	if err := mgr.SetScreenTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mgr.ScreenOn() {
		t.Fatal("short timeout should have fired")
	}
	if err := mgr.SetScreenTimeout(0); err == nil {
		t.Fatal("zero timeout accepted")
	}
}

func TestStringers(t *testing.T) {
	if Partial.String() != "PARTIAL_WAKE_LOCK" || !Full.KeepsScreenOn() {
		t.Fatal("wakelock type metadata wrong")
	}
	if Partial.KeepsScreenOn() {
		t.Fatal("partial keeps screen on?")
	}
	for _, s := range []string{
		WakelockType(0).String(), ReleaseCause(0).String(), ScreenCause(0).String(),
	} {
		if !strings.Contains(s, "(0)") {
			t.Errorf("zero-value stringer = %q", s)
		}
	}
	if ReleasedExplicit.String() != "explicit" || ReleasedLinkToDeath.String() != "link-to-death" {
		t.Fatal("release cause names wrong")
	}
	if ScreenUserActivity.String() != "user-activity" || ScreenTimeout.String() != "timeout" ||
		ScreenWakelock.String() != "wakelock" {
		t.Fatal("screen cause names wrong")
	}
}

func TestNewManagerNilDeps(t *testing.T) {
	if _, err := NewManager(nil, nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}

func TestDimWakelockDimsAtTimeout(t *testing.T) {
	e, meter, pm, mgr, _ := fixture(t)
	a := installHolder(t, pm, "com.dim")
	wl, err := mgr.Acquire(a.UID, ScreenDim, "reader")
	if err != nil {
		t.Fatal(err)
	}
	if meter.ScreenDimmed() {
		t.Fatal("screen should start undimmed")
	}
	// At timeout the display stays on but drops to the dim state.
	if err := e.RunFor(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !mgr.ScreenOn() {
		t.Fatal("dim lock should keep screen on")
	}
	if !meter.ScreenDimmed() {
		t.Fatal("dim lock should allow dimming at timeout")
	}
	// A user touch undims and resets.
	mgr.UserActivity()
	if meter.ScreenDimmed() {
		t.Fatal("user activity should undim")
	}
	if err := wl.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestBrightLockPreventsDim(t *testing.T) {
	e, meter, pm, mgr, _ := fixture(t)
	a := installHolder(t, pm, "com.dimbr")
	if _, err := mgr.Acquire(a.UID, ScreenDim, "reader"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Acquire(a.UID, ScreenBright, "video"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	if meter.ScreenDimmed() {
		t.Fatal("bright lock should prevent dimming")
	}
	if !mgr.ScreenOn() {
		t.Fatal("screen should stay on")
	}
}

func TestDimStateReducesScreenPower(t *testing.T) {
	e, meter, pm, mgr, _ := fixture(t)
	a := installHolder(t, pm, "com.dimpow")
	if _, err := mgr.Acquire(a.UID, ScreenDim, "reader"); err != nil {
		t.Fatal(err)
	}
	bright := meter.InstantScreenPowerMW()
	if err := e.RunFor(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	dim := meter.InstantScreenPowerMW()
	if dim <= 0 || dim >= bright {
		t.Fatalf("dim power %v should be in (0, %v)", dim, bright)
	}
}
