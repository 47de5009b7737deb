package scenario

import (
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hw"
)

func newTestWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(device.Config{EAndroid: true, Policy: accounting.BatteryStats})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorldInstallsCast(t *testing.T) {
	w := newTestWorld(t)
	for _, a := range []*app.App{w.Message, w.Camera, w.Contacts, w.Victim, w.Malware} {
		if a == nil || !a.Alive() {
			t.Fatal("cast member missing or dead")
		}
	}
	if !w.Malware.HiddenFromRecents {
		t.Fatal("malware should hide from recents")
	}
	if w.Malware.Manifest.HasPermission("nope") {
		t.Fatal("sanity")
	}
}

func TestScene1EnergyFlow(t *testing.T) {
	w := newTestWorld(t)
	if err := w.Scene1MessageFilm(); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	// Camera ran for 30 s in the foreground holding the sensor.
	cam := w.Dev.Android.AppRow(w.Camera.UID)
	if !withinPct(cam.J(hw.Camera), hw.Nexus4().CameraOn/1000*30, 1) {
		t.Fatalf("camera sensor energy = %v", cam.J(hw.Camera))
	}
	// After the scene the camera activity is finished: message resumed.
	if got := w.Dev.Activities.Foreground(); got != w.Message.UID {
		t.Fatalf("foreground = %v, want message", got)
	}
	// A legitimate IPC chain still registers as collateral (normal apps
	// produce collateral energy too).
	if len(w.Dev.EAndroid.Attacks()) == 0 {
		t.Fatal("scene 1 should record the message->camera collateral period")
	}
}

func TestScene2ChainDepth(t *testing.T) {
	w := newTestWorld(t)
	if err := w.Scene2ContactsChain(); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	// Contacts carries Message AND Camera in its collateral map.
	mp := w.Dev.EAndroid.CollateralMap(w.Contacts.UID)
	var haveMsg, haveCam bool
	for _, e := range mp {
		if e.Driven == w.Message.UID && e.EnergyJ > 0 {
			haveMsg = true
		}
		if e.Driven == w.Camera.UID && e.EnergyJ > 0 {
			haveCam = true
		}
	}
	if !haveMsg || !haveCam {
		t.Fatalf("contacts map incomplete: msg=%v cam=%v (%+v)", haveMsg, haveCam, mp)
	}
}

func TestAttack1HidesBehindCamera(t *testing.T) {
	w := newTestWorld(t)
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack1ComponentHijack(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	acc := w.Dev.Android
	if acc.AppJ(w.Malware.UID) > acc.AppJ(w.Camera.UID)/10 {
		t.Fatal("attack 1 is supposed to be invisible in the baseline")
	}
	if w.Dev.EAndroid.CollateralJ(w.Malware.UID) == 0 {
		t.Fatal("E-Android must charge the malware")
	}
}

func TestAttack2BackgroundDrain(t *testing.T) {
	w := newTestWorld(t)
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack2BackgroundApps(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	// Both background victims drained their residual CPU shares.
	p := hw.Nexus4()
	wantVictim := 0.08 * p.CPUFull / 1000 * 60
	if !withinPct(w.Dev.Android.AppJ(w.Victim.UID), wantVictim, 2) {
		t.Fatalf("victim bg energy = %v, want ~%v", w.Dev.Android.AppJ(w.Victim.UID), wantVictim)
	}
	// The malware's collateral map carries both victims.
	mp := w.Dev.EAndroid.CollateralMap(w.Malware.UID)
	if len(mp) < 2 {
		t.Fatalf("map = %+v", mp)
	}
}

func TestAttack3PinsService(t *testing.T) {
	w := newTestWorld(t)
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack3ServicePin(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	svc := w.Dev.Services.Lookup(PkgVictim + "/Work")
	if svc == nil || !svc.Running() {
		t.Fatal("service should still run (stopService defeated)")
	}
	if svc.Started() {
		t.Fatal("service should no longer be 'started', only pinned by the bind")
	}
}

func TestAttack4LeavesWakelockHeld(t *testing.T) {
	w := newTestWorld(t)
	if err := w.Attack4InterruptQuit(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The victim sits in the background, alive, wakelock held: the
	// no-sleep hazard in effect.
	locks := w.Dev.Power.HeldBy(w.Victim.UID)
	if len(locks) != 1 {
		t.Fatalf("victim wakelocks = %d, want 1", len(locks))
	}
	if w.Dev.Activities.Foreground() == w.Victim.UID {
		t.Fatal("victim should be in the background")
	}
	if !w.Victim.Alive() {
		t.Fatal("victim process should be alive (quit was intercepted)")
	}
	if !w.Dev.Power.ScreenOn() {
		t.Fatal("held screen wakelock should keep the screen on")
	}
	// E-Android attributes the wakelock attack to the interrupter chain:
	// at least an interrupt record against the malware exists.
	var interrupt bool
	for _, a := range w.Dev.EAndroid.Attacks() {
		if a.Vector == core.VectorInterrupt && a.Driving == w.Malware.UID {
			interrupt = true
		}
	}
	if !interrupt {
		t.Fatal("interrupt attack not recorded")
	}
}

func TestAttack5EscalatesBrightness(t *testing.T) {
	w := newTestWorld(t)
	if err := w.Attack5Brightness(30*time.Second, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if w.Dev.Meter.Brightness() != 255 {
		t.Fatalf("brightness = %d, want 255", w.Dev.Meter.Brightness())
	}
	w.Dev.Flush()
	if w.Dev.EAndroid.CollateralJ(w.Malware.UID) == 0 {
		t.Fatal("screen escalation should charge the malware")
	}
}

func TestAttack6ScreenPinned(t *testing.T) {
	w := newTestWorld(t)
	if err := w.Attack6WakelockScreen(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !w.Dev.Power.ScreenOn() {
		t.Fatal("screen should still be on at t=60s")
	}
	// Compare to a no-attack world: screen times out at 30 s.
	n := newTestWorld(t)
	if err := n.Dev.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Dev.Power.ScreenOn() {
		t.Fatal("control: screen should have timed out")
	}
	w.Dev.Flush()
	n.Dev.Flush()
	if w.Dev.Android.ScreenJ() <= n.Dev.Android.ScreenJ()*1.5 {
		t.Fatalf("attack screen %v vs normal %v", w.Dev.Android.ScreenJ(), n.Dev.Android.ScreenJ())
	}
}

func TestMultiCollateralEndsClean(t *testing.T) {
	w := newTestWorld(t)
	if err := w.MultiCollateral(); err != nil {
		t.Fatal(err)
	}
	if n := len(w.Dev.EAndroid.ActiveAttacks()); n != 0 {
		t.Fatalf("active attacks = %d, want 0", n)
	}
	// At least three distinct vectors were exercised.
	vecs := map[core.Vector]bool{}
	for _, a := range w.Dev.EAndroid.Attacks() {
		vecs[a.Vector] = true
	}
	if !vecs[core.VectorServiceBind] || !vecs[core.VectorActivity] || !vecs[core.VectorInterrupt] {
		t.Fatalf("vectors = %v", vecs)
	}
}

func TestHybridChainEndsClean(t *testing.T) {
	w := newTestWorld(t)
	if err := w.HybridChain(); err != nil {
		t.Fatal(err)
	}
	if n := len(w.Dev.EAndroid.ActiveAttacks()); n != 0 {
		t.Fatalf("active attacks = %d, want 0", n)
	}
}

func TestCombinedAttackTwoVectors(t *testing.T) {
	w := newTestWorld(t)
	if err := w.CombinedAttack(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	vecs := map[core.Vector]bool{}
	for _, a := range w.Dev.EAndroid.ActiveAttacks() {
		if a.Driving == w.Malware.UID {
			vecs[a.Vector] = true
		}
	}
	if !vecs[core.VectorServiceBind] || !vecs[core.VectorScreen] {
		t.Fatalf("combined attack vectors = %v", vecs)
	}
	w.Dev.Flush()
	// The malware's map carries both the victim and the screen.
	var haveVictim, haveScreen bool
	for _, e := range w.Dev.EAndroid.CollateralMap(w.Malware.UID) {
		if e.Driven == w.Victim.UID && e.EnergyJ > 0 {
			haveVictim = true
		}
		if e.Driven == app.UIDScreen && e.EnergyJ > 0 {
			haveScreen = true
		}
	}
	if !haveVictim || !haveScreen {
		t.Fatalf("combined map incomplete: victim=%v screen=%v", haveVictim, haveScreen)
	}
}

func TestAttackChainSeries(t *testing.T) {
	w := newTestWorld(t)
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.AttackChainSeries(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	// The chain root carries all three downstream victims.
	mp := w.Dev.EAndroid.CollateralMap(w.Malware.UID)
	charged := map[app.UID]bool{}
	for _, e := range mp {
		if e.EnergyJ > 0 {
			charged[e.Driven] = true
		}
	}
	for _, want := range []*app.App{w.Victim, w.Message, w.Camera} {
		if !charged[want.UID] {
			t.Fatalf("chain root map missing %s: %+v", want.Label(), mp)
		}
	}
}

func TestForceScreenOnNotAnAttack(t *testing.T) {
	w := newTestWorld(t)
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(w.Dev.EAndroid.Attacks()) != 0 {
		t.Fatal("the experiment wakelock must not register as an attack")
	}
	if !w.Dev.Power.ScreenOn() {
		t.Fatal("screen should be forced on")
	}
}

func withinPct(got, want, pct float64) bool {
	if want == 0 {
		return got == 0
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff/want*100 <= pct
}

func TestStealthAutoLaunch(t *testing.T) {
	w := newTestWorld(t)
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.StealthAutoLaunch(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	// The malware never reached the foreground...
	if got := w.Dev.Android.ForegroundTime(w.Malware.UID); got != 0 {
		t.Fatalf("malware foreground time = %v, want 0 (stealth broken)", got)
	}
	// ...yet E-Android pins the hijacked camera's energy on it.
	var hasCamera bool
	for _, e := range w.Dev.EAndroid.CollateralMap(w.Malware.UID) {
		if e.Driven == w.Camera.UID && e.EnergyJ > 0 {
			hasCamera = true
		}
	}
	if !hasCamera {
		t.Fatal("stealth hijack not attributed to the malware")
	}
	// And it stays hidden from the recents list.
	if !w.Malware.HiddenFromRecents {
		t.Fatal("stealth flag lost")
	}
}

// The cast's manifests are shared by every world, so the receiver
// StealthAutoLaunch adds must land on a copy: a world populated after
// the stealth run, in the same process, still has no Unlock receiver.
func TestStealthAutoLaunchLeavesSharedCastAlone(t *testing.T) {
	w := newTestWorld(t)
	if err := w.StealthAutoLaunch(time.Second); err != nil {
		t.Fatal(err)
	}
	if w.Malware.Manifest.Component("Unlock") == nil {
		t.Fatal("stealth world lacks its Unlock receiver")
	}
	if got := w.Malware.Workload("Unlock"); got != (app.Workload{}) {
		t.Fatalf("Unlock receiver workload = %+v, want zero", got)
	}
	if got := w.Malware.Workload("Main"); got.CPUActive != 0.03 {
		t.Fatalf("malware Main workload = %+v after the manifest copy", got)
	}
	fresh := newTestWorld(t)
	if fresh.Malware.Manifest.Component("Unlock") != nil {
		t.Fatal("a later world's malware has the Unlock receiver: StealthAutoLaunch changed the shared manifest")
	}
	if n := len(fresh.Malware.Manifest.Components); n != 3 {
		t.Fatalf("a later world's malware declares %d components, want 3", n)
	}
}

// Populate installs the cast by pointer: two worlds share each app's
// manifest, and so do their launchers.
func TestPopulateSharesCastManifests(t *testing.T) {
	a, b := newTestWorld(t), newTestWorld(t)
	pairs := [][2]*app.App{
		{a.Message, b.Message}, {a.Camera, b.Camera}, {a.Contacts, b.Contacts},
		{a.Victim, b.Victim}, {a.Malware, b.Malware},
		{a.Dev.Activities.Launcher(), b.Dev.Activities.Launcher()},
	}
	for _, p := range pairs {
		if p[0].Manifest != p[1].Manifest {
			t.Fatalf("%s: two worlds hold different manifests", p[0].Package())
		}
	}
}
