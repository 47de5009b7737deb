package core_test

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/display"
	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/scenario"
)

func world(t *testing.T, cfg device.Config) *scenario.World {
	t.Helper()
	cfg.EAndroid = true
	w, err := scenario.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func activeVectors(m *core.Monitor) map[core.Vector]int {
	out := map[core.Vector]int{}
	for _, a := range m.ActiveAttacks() {
		out[a.Vector]++
	}
	return out
}

func entryJ(m *core.Monitor, driving, driven app.UID) float64 {
	for _, e := range m.CollateralMap(driving) {
		if e.Driven == driven {
			return e.EnergyJ
		}
	}
	return 0
}

// --- Fig. 5a: activity attack lifecycle ---

func TestActivityAttackBeginsOnCrossAppStart(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgMalware); err != nil {
		t.Fatal(err)
	}
	// User-driven starts (launcher is a system app) must not begin
	// attacks.
	if len(mon.ActiveAttacks()) != 0 {
		t.Fatalf("attacks after user start: %v", mon.ActiveAttacks())
	}
	if _, err := w.Dev.StartActivity(w.Malware.UID, scenario.PkgVictim+"/Main"); err != nil {
		t.Fatal(err)
	}
	atks := mon.ActiveAttacks()
	if len(atks) != 1 || atks[0].Vector != core.VectorActivity ||
		atks[0].Driving != w.Malware.UID || atks[0].Driven != w.Victim.UID {
		t.Fatalf("attacks = %v", atks)
	}
}

func TestActivityAttackEndsWhenStartedAgain(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgMalware); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Dev.StartActivity(w.Malware.UID, scenario.PkgVictim+"/Main"); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The user starts the victim again: the attack ends.
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
		t.Fatal(err)
	}
	if n := activeVectors(mon)[core.VectorActivity]; n != 0 {
		t.Fatalf("activity attacks still active: %d", n)
	}
	all := mon.Attacks()
	if len(all) == 0 || all[0].Active || all[0].Duration(w.Dev.Engine.Now()) != 10*time.Second {
		t.Fatalf("attack record = %+v", all[0])
	}
}

func TestActivityAttackEndsWhenMovedToFront(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgMalware); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Dev.StartActivity(w.Malware.UID, scenario.PkgVictim+"/Main"); err != nil {
		t.Fatal(err)
	}
	// Shove the victim to background first, then the user brings it back.
	if err := w.Dev.Activities.MoveAppToFront(w.Malware.UID, scenario.PkgMalware); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorActivity] != 1 {
		t.Fatal("attack should persist while victim in background")
	}
	if err := w.Dev.Activities.MoveAppToFront(app.UIDSystem, scenario.PkgVictim); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorActivity] != 0 {
		t.Fatal("move-to-front should end the activity attack")
	}
}

func TestActivityAttackNotEndedByItsOwnStart(t *testing.T) {
	// The foreground change caused by the starting event itself must not
	// immediately terminate the attack.
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgMalware); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Dev.StartActivity(w.Malware.UID, scenario.PkgVictim+"/Main"); err != nil {
		t.Fatal(err)
	}
	if len(mon.ActiveAttacks()) != 1 {
		t.Fatalf("attack should survive its own start event: %v", mon.Attacks())
	}
}

// --- Fig. 5b: interrupt attack lifecycle ---

func TestInterruptAttackViaHome(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Malware sends the home intent, forcing the victim into background.
	w.Dev.Activities.Home(w.Malware.UID)
	atks := mon.ActiveAttacks()
	if len(atks) != 1 || atks[0].Vector != core.VectorInterrupt ||
		atks[0].Driving != w.Malware.UID || atks[0].Driven != w.Victim.UID {
		t.Fatalf("attacks = %v", atks)
	}
	if err := w.Dev.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Victim back to front ends it.
	if err := w.Dev.Activities.MoveAppToFront(app.UIDSystem, scenario.PkgVictim); err != nil {
		t.Fatal(err)
	}
	if len(mon.ActiveAttacks()) != 0 {
		t.Fatal("interrupt attack should end when victim returns to front")
	}
}

func TestUserHomeDoesNotBeginInterrupt(t *testing.T) {
	w := world(t, device.Config{})
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
		t.Fatal(err)
	}
	w.Dev.Activities.Home(app.UIDSystem)
	if len(w.Dev.EAndroid.ActiveAttacks()) != 0 {
		t.Fatal("user pressing home is not an attack")
	}
}

func TestInterruptViaTransparentOverlay(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	victimRec, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Dev.StartActivity(w.Malware.UID, scenario.PkgMalware+"/Overlay",
		activity.Transparent()); err != nil {
		t.Fatal(err)
	}
	if victimRec.State() != activity.Paused {
		t.Fatalf("victim state = %v, want paused under overlay", victimRec.State())
	}
	// The overlay both starts the malware's own activity (not an attack
	// — same app) and interrupts the victim (an attack).
	av := activeVectors(mon)
	if av[core.VectorInterrupt] != 1 || av[core.VectorActivity] != 0 {
		t.Fatalf("active vectors = %v", av)
	}
}

// --- Fig. 5c: service attack lifecycles ---

func TestServiceStartAttack(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if _, err := w.Dev.StartService(w.Malware.UID, scenario.PkgVictim+"/Work"); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorServiceStart] != 1 {
		t.Fatal("service-start attack not begun")
	}
	if err := w.Dev.Services.Stop(w.Victim.UID, scenario.PkgVictim+"/Work"); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorServiceStart] != 0 {
		t.Fatal("stopService should end the attack")
	}
}

func TestServiceBindAttackEndsOnUnbind(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	conn, err := w.Dev.BindService(w.Malware.UID, scenario.PkgVictim+"/Work")
	if err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorServiceBind] != 1 {
		t.Fatal("bind attack not begun")
	}
	if err := w.Dev.Services.Unbind(conn); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorServiceBind] != 0 {
		t.Fatal("unbind should end the attack")
	}
}

func TestSameAppServiceUseIsNotCollateral(t *testing.T) {
	w := world(t, device.Config{})
	if _, err := w.Dev.StartService(w.Victim.UID, scenario.PkgVictim+"/Work"); err != nil {
		t.Fatal(err)
	}
	if len(w.Dev.EAndroid.ActiveAttacks()) != 0 {
		t.Fatal("same-app service start is not an attack")
	}
}

// --- Fig. 5d: screen attack lifecycle ---

func TestScreenAttackLifecycle(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	// Malware raises brightness.
	if err := w.Dev.Display.SetBrightness(w.Malware.UID, display.SourceApp, 255); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorScreen] != 1 {
		t.Fatal("brightness increase should begin a screen attack")
	}
	// Malware lowering it again ends its own attack.
	if err := w.Dev.Display.SetBrightness(w.Malware.UID, display.SourceApp, 10); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorScreen] != 0 {
		t.Fatal("decrease by attacker should end the attack")
	}
}

func TestScreenAttackEndedByUserSlider(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if err := w.Dev.Display.SetBrightness(w.Malware.UID, display.SourceApp, 255); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Display.SetBrightness(app.UIDSystem, display.SourceSystemUI, 80); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorScreen] != 0 {
		t.Fatal("user slider should end screen attacks")
	}
}

func TestScreenAttackViaModeSwitch(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	// Put the device in auto mode (user action).
	if err := w.Dev.Display.SetMode(app.UIDSystem, display.SourceSystemUI, display.Auto); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorScreen] != 0 {
		t.Fatal("no attack expected yet")
	}
	// Malware saves a high value (deferred in auto mode), then flips to
	// manual — the classic malware #5 sequence.
	if err := w.Dev.Display.SetBrightness(w.Malware.UID, display.SourceApp, 255); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Display.SetMode(w.Malware.UID, display.SourceApp, display.Manual); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorScreen] != 1 {
		t.Fatal("auto->manual switch by app should begin a screen attack")
	}
	if w.Dev.Meter.Brightness() != 255 {
		t.Fatal("saved brightness should have applied")
	}
	// Switching back to auto (by anyone) ends it.
	if err := w.Dev.Display.SetMode(app.UIDSystem, display.SourceSystemUI, display.Auto); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorScreen] != 0 {
		t.Fatal("switch to auto should end screen attacks")
	}
}

// --- Fig. 5e: wakelock attack lifecycle ---

func TestWakelockAttackOnBackgroundAcquire(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	// Malware is not foreground (launcher is); its service acquires a
	// screen wakelock.
	wl, err := w.Dev.Power.Acquire(w.Malware.UID, power.ScreenBright, "daemon")
	if err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorWakelock] != 1 {
		t.Fatal("background screen-wakelock acquire should begin an attack")
	}
	if err := wl.Release(); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorWakelock] != 0 {
		t.Fatal("release should end the attack")
	}
}

func TestWakelockAttackWhenHolderLeavesForeground(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
		t.Fatal(err)
	}
	// Foreground acquire: legitimate, no attack.
	if _, err := w.Dev.Power.Acquire(w.Victim.UID, power.ScreenBright, "ui"); err != nil {
		t.Fatal(err)
	}
	if activeVectors(mon)[core.VectorWakelock] != 0 {
		t.Fatal("foreground acquire is not an attack")
	}
	// The victim goes background without releasing: attack begins.
	w.Dev.Activities.Home(app.UIDSystem)
	if activeVectors(mon)[core.VectorWakelock] != 1 {
		t.Fatal("leaving foreground with wakelock held should begin an attack")
	}
	// Process death releases via link-to-death and ends the attack.
	w.Victim.Kill()
	if activeVectors(mon)[core.VectorWakelock] != 0 {
		t.Fatal("link-to-death release should end the attack")
	}
}

// A holder leaving the foreground with several screen wakelocks begins
// one wakelock attack per lock, in acquire order: the attack IDs, the
// event log and every view built on them must not depend on map order.
// Each run is a fresh world, so a map-ordered walk shows up as a
// rotated order in most runs.
func TestWakelockAttacksBeginInAcquireOrder(t *testing.T) {
	tags := []string{"ui-a", "ui-b", "ui-c"}
	for run := 0; run < 20; run++ {
		w := world(t, device.Config{})
		mon := w.Dev.EAndroid
		if _, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
			t.Fatal(err)
		}
		var locks []*power.Wakelock
		for _, tag := range tags {
			wl, err := w.Dev.Power.Acquire(w.Victim.UID, power.ScreenBright, tag)
			if err != nil {
				t.Fatal(err)
			}
			locks = append(locks, wl)
		}
		w.Dev.Activities.Home(app.UIDSystem)

		var events []string
		for _, e := range mon.Events() {
			if e.Kind == "wakelock-background" {
				events = append(events, e.Detail)
			}
		}
		if !slices.Equal(events, tags) {
			t.Fatalf("run %d: wakelock-background events %v, want %v", run, events, tags)
		}
		var atks []*core.Attack
		for _, a := range mon.Attacks() {
			if a.Vector == core.VectorWakelock {
				atks = append(atks, a)
			}
		}
		if len(atks) != len(tags) {
			t.Fatalf("run %d: %d wakelock attacks, want %d", run, len(atks), len(tags))
		}
		// Attack i must be lock i's: releasing the locks in acquire
		// order ends the attacks in begin order.
		for i, wl := range locks {
			if err := wl.Release(); err != nil {
				t.Fatal(err)
			}
			for j, a := range atks {
				if a.Active != (j > i) {
					t.Fatalf("run %d: after releasing %s, attack %d (#%d) active=%v", run, tags[i], j, a.ID, a.Active)
				}
			}
		}
	}
}

func TestPartialWakelockNotScreenAttack(t *testing.T) {
	w := world(t, device.Config{})
	if _, err := w.Dev.Power.Acquire(w.Malware.UID, power.Partial, "cpu"); err != nil {
		t.Fatal(err)
	}
	if len(w.Dev.EAndroid.ActiveAttacks()) != 0 {
		t.Fatal("partial wakelocks are not screen attacks")
	}
}

// --- Energy superimposition ---

func TestCollateralEnergyCharged(t *testing.T) {
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack1ComponentHijack(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	// Camera's own energy over 60 s foreground: CPU 0.5 util + camera
	// sensor.
	p := hw.Nexus4()
	wantCam := (0.5*p.CPUFull + p.CameraOn) / 1000 * 60
	got := entryJ(mon, w.Malware.UID, w.Camera.UID)
	if math.Abs(got-wantCam) > 1e-6 {
		t.Fatalf("collateral camera energy = %v, want %v", got, wantCam)
	}
	// Android's own accountant shows the malware with almost nothing.
	if w.Dev.Android.AppJ(w.Malware.UID) >= w.Dev.Android.AppJ(w.Camera.UID) {
		t.Fatal("baseline should charge camera, not malware")
	}
	// E-Android's breakdown ranks malware above its baseline reading.
	bd := mon.BreakdownFor(w.Malware.UID, w.Dev.Android.AppJ(w.Malware.UID))
	if bd.TotalJ <= bd.OriginalJ {
		t.Fatal("breakdown must add collateral energy")
	}
}

func TestNoAccrualAfterAttackEnds(t *testing.T) {
	// Fig. 9c's key property: energy beyond the attack period is not
	// charged to the malware.
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	raw := attachRawLedger(w.Dev)
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack3ServicePin(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	before := entryJ(mon, w.Malware.UID, w.Victim.UID)
	if before == 0 {
		t.Fatal("attack 3 should have charged collateral energy")
	}
	// Malware unbinds; the victim keeps its own activity running.
	conns := 0
	svc := w.Dev.Services.Lookup(scenario.PkgVictim + "/Work")
	_ = conns
	// End the attack by killing the malware (client death unbinds).
	w.Malware.Kill()
	if svc.Running() {
		t.Fatal("service should stop once the malicious bind drops")
	}
	victimBefore := raw.appJ[w.Victim.UID]
	if err := w.Dev.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	// The victim itself keeps draining (its activity is alive and the
	// screen is forced on), so the check is not vacuous...
	if raw.appJ[w.Victim.UID] <= victimBefore {
		t.Fatal("victim should keep draining after the attack ends")
	}
	// ...but none of that post-attack energy lands on the malware.
	after := entryJ(mon, w.Malware.UID, w.Victim.UID)
	if math.Abs(after-before) > 1e-9 {
		t.Fatalf("post-attack accrual: %v -> %v", before, after)
	}
}

func TestMultiCollateralNoDoubleCharge(t *testing.T) {
	// Fig. 6: bind + start + interrupt on the same victim; the victim's
	// energy is superimposed on the malware exactly once.
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	raw := attachRawLedger(w.Dev)
	if err := w.MultiCollateral(); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	charged := entryJ(mon, w.Malware.UID, w.Victim.UID)
	// The victim's raw own energy across the whole scenario is an upper
	// bound; double-charging would exceed it.
	if charged > raw.appJ[w.Victim.UID]+1e-9 {
		t.Fatalf("charged %v exceeds victim's own energy %v — double charged", charged, raw.appJ[w.Victim.UID])
	}
	if charged == 0 {
		t.Fatal("multi-collateral should charge something")
	}
	// After the scenario everything ended.
	if len(mon.ActiveAttacks()) != 0 {
		t.Fatalf("attacks still active: %v", mon.ActiveAttacks())
	}
}

func TestHybridChainChargesRoot(t *testing.T) {
	// Fig. 7: A binds B, B starts C, C raises brightness. B, C and the
	// screen all appear in A's map.
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if err := w.HybridChain(); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	mp := mon.CollateralMap(w.Malware.UID)
	var haveVictim, haveCamera, haveScreen bool
	for _, e := range mp {
		switch e.Driven {
		case w.Victim.UID:
			haveVictim = e.EnergyJ > 0
		case w.Camera.UID:
			haveCamera = e.EnergyJ > 0
		case app.UIDScreen:
			haveScreen = e.EnergyJ > 0
		}
	}
	if !haveVictim || !haveCamera || !haveScreen {
		t.Fatalf("hybrid map missing entries: victim=%v camera=%v screen=%v (%+v)",
			haveVictim, haveCamera, haveScreen, mp)
	}
	// The middleman B also carries C and the screen in its own map.
	mpB := mon.CollateralMap(w.Victim.UID)
	var bHasCamera bool
	for _, e := range mpB {
		if e.Driven == w.Camera.UID && e.EnergyJ > 0 {
			bHasCamera = true
		}
	}
	if !bHasCamera {
		t.Fatal("middleman should also carry the camera in its map")
	}
}

// --- Normal scenes ---

func TestScene1AttributionDiffersBetweenViews(t *testing.T) {
	w := world(t, device.Config{})
	if err := w.Scene1MessageFilm(); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	acc := w.Dev.Android
	mon := w.Dev.EAndroid
	// Baseline: camera ≫ message.
	if acc.AppJ(w.Camera.UID) <= acc.AppJ(w.Message.UID) {
		t.Fatalf("baseline: camera %v should exceed message %v",
			acc.AppJ(w.Camera.UID), acc.AppJ(w.Message.UID))
	}
	// E-Android: message total (with collateral) exceeds camera's own.
	bd := mon.BreakdownFor(w.Message.UID, acc.AppJ(w.Message.UID))
	if bd.TotalJ <= acc.AppJ(w.Camera.UID) {
		t.Fatalf("e-android: message total %v should exceed camera %v",
			bd.TotalJ, acc.AppJ(w.Camera.UID))
	}
}

// --- Framework-only mode ---

func TestFrameworkOnlyRecordsWithoutAccounting(t *testing.T) {
	w := world(t, device.Config{MonitorMode: core.FrameworkOnly})
	if err := w.Attack1ComponentHijack(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	mon := w.Dev.EAndroid
	if len(mon.Events()) == 0 {
		t.Fatal("framework-only mode must record events")
	}
	if len(mon.Attacks()) != 0 {
		t.Fatal("framework-only mode must not track attacks")
	}
	if len(mon.CollateralMap(w.Malware.UID)) != 0 {
		t.Fatal("framework-only mode must not build maps")
	}
}

// --- Energy efficiency (paper §VI-B) ---

func TestEnergyEfficiencyParity(t *testing.T) {
	run := func(enable bool) float64 {
		cfg := device.Config{EAndroid: enable}
		w, err := scenario.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Scene1MessageFilm(); err != nil {
			t.Fatal(err)
		}
		return w.Dev.DrainedJ()
	}
	with, without := run(true), run(false)
	if math.Abs(with-without) > 1e-9 {
		t.Fatalf("E-Android changed energy: with=%v without=%v", with, without)
	}
}

// --- Misc ---

func TestMonitorConstructorValidation(t *testing.T) {
	if _, err := core.NewMonitor(nil, nil, core.Complete); err == nil {
		t.Fatal("nil deps accepted")
	}
	w := world(t, device.Config{})
	if _, err := core.NewMonitor(w.Dev.Engine, w.Dev.Packages, core.Mode(0)); err == nil {
		t.Fatal("invalid mode accepted")
	}
}

func TestStringersAndViews(t *testing.T) {
	w := world(t, device.Config{})
	if err := w.Attack1ComponentHijack(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if core.VectorActivity.String() != "activity" || core.VectorWakelock.String() != "wakelock" {
		t.Fatal("vector names")
	}
	if core.Complete.String() != "complete" || core.FrameworkOnly.String() != "framework-only" {
		t.Fatal("mode names")
	}
	if !strings.Contains(core.Vector(0).String(), "0") || !strings.Contains(core.Mode(0).String(), "0") {
		t.Fatal("zero stringers")
	}
	atks := w.Dev.EAndroid.Attacks()
	if len(atks) == 0 || !strings.Contains(atks[0].String(), "activity") {
		t.Fatalf("attack stringer: %v", atks)
	}
	evs := w.Dev.EAndroid.Events()
	if len(evs) == 0 || !strings.Contains(evs[0].String(), "activity-start") {
		t.Fatalf("event stringer: %v", evs)
	}
	view := w.Dev.EAndroidView()
	if !strings.Contains(view, "FunGame") {
		t.Fatalf("view missing malware row:\n%s", view)
	}
	if !strings.Contains(w.Dev.AttackView(), "Camera") {
		t.Fatal("attack view missing entries")
	}
}

func TestImplicitResolverAttributionToOriginalSender(t *testing.T) {
	// Fig. 5a's implicit-intent case: the user picks a handler in the
	// system resolver UI, and E-Android attributes the eventual start to
	// the app that sent the implicit intent — ignoring the resolver.
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	// Two handlers for the same action force the resolver to appear.
	second := w.Dev.Packages.MustInstall(
		manifestBuilderForShare("com.share.other", "OtherShare"))
	_ = second
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgMalware); err != nil {
		t.Fatal(err)
	}
	matches, direct, err := w.Dev.Activities.StartActivityImplicit(intentForShare(w.Malware.UID))
	if err != nil {
		t.Fatal(err)
	}
	if direct != nil || len(matches) < 2 {
		t.Fatalf("expected resolver path, got direct=%v matches=%d", direct, len(matches))
	}
	// While the resolver (a system app) is up, no attack is recorded.
	if len(mon.ActiveAttacks()) != 0 {
		t.Fatalf("resolver UI registered attacks: %v", mon.ActiveAttacks())
	}
	// The user picks the Message app.
	choice := -1
	for i, m := range matches {
		if m.App == w.Message {
			choice = i
		}
	}
	if _, err := w.Dev.Activities.ChooseResolverOption(choice); err != nil {
		t.Fatal(err)
	}
	atks := mon.ActiveAttacks()
	if len(atks) != 1 || atks[0].Driving != w.Malware.UID || atks[0].Driven != w.Message.UID {
		t.Fatalf("attribution through resolver wrong: %v", atks)
	}
}

func TestChainBreaksWhenMiddlemanDies(t *testing.T) {
	// Failure injection: A binds B, B starts C. When B's process dies,
	// the A->B link drops (client/owner death tears the bind down), so
	// C's continuing drain stops flowing to A.
	w := world(t, device.Config{})
	mon := w.Dev.EAndroid
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Dev.BindService(w.Malware.UID, scenario.PkgVictim+"/Work"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Dev.Activities.StartActivity(intentExplicit(w.Victim.UID, scenario.PkgCamera+"/VideoActivity")); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	before := entryJ(mon, w.Malware.UID, w.Camera.UID)
	if before <= 0 {
		t.Fatal("chain should have charged the root before the break")
	}
	// The middleman dies: the bind drops, the chain breaks.
	w.Victim.Kill()
	if err := w.Dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	after := entryJ(mon, w.Malware.UID, w.Camera.UID)
	if math.Abs(after-before) > 1e-9 {
		t.Fatalf("root kept accruing after the chain broke: %v -> %v", before, after)
	}
	// The B->C attack itself is still live (C keeps draining in B's
	// name), so B's map keeps growing even though B is dead.
	if entryJ(mon, w.Victim.UID, w.Camera.UID) <= before {
		t.Fatal("middleman's own map should keep accruing")
	}
}

func TestDefenseFlowUninstallMalware(t *testing.T) {
	// The paper's end-to-end defense story: E-Android's view names the
	// malware, the user deletes it, every attack ends and the drain
	// rate falls back to baseline.
	w := world(t, device.Config{})
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack3ServicePin(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(w.Dev.EAndroid.ActiveAttacks()) == 0 {
		t.Fatal("precondition: attack active")
	}
	svc := w.Dev.Services.Lookup(scenario.PkgVictim + "/Work")
	if svc == nil || !svc.Running() {
		t.Fatal("precondition: service pinned")
	}
	// The user reads the E-Android view and deletes FunGame.
	if err := w.Dev.Packages.Uninstall(scenario.PkgMalware); err != nil {
		t.Fatal(err)
	}
	if len(w.Dev.EAndroid.ActiveAttacks()) != 0 {
		t.Fatalf("attacks survive uninstall: %v", w.Dev.EAndroid.ActiveAttacks())
	}
	if svc.Running() {
		t.Fatal("pinned service should stop once the malicious bind dies")
	}
	// The victim's own session keeps draining (its activity is alive) —
	// only the collateral stops.
	powerBefore := w.Dev.Meter.InstantPowerMW()
	if err := w.Dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if w.Dev.Meter.InstantPowerMW() > powerBefore {
		t.Fatal("drain should not grow after uninstall")
	}
}

// A cross-app start keeps its flag and its target's cached FullName in
// the monitor's history, and Events renders the Detail from them: the
// launcher's explicit launch reads "explicit <name>", an implicit start
// "implicit <name>". A warm launcher launch (a system caller, so it
// begins no attack) builds no string: only the history's growth
// allocates, which 100 starts average to nothing.
func TestActivityStartDetailRenderedOnRead(t *testing.T) {
	w := world(t, device.Config{})
	act, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim)
	if err != nil {
		t.Fatal(err)
	}
	mon := w.Dev.EAndroid
	launcher := w.Dev.Activities.Launcher().UID
	evs := mon.Events()
	last := evs[len(evs)-1]
	if want := "explicit " + act.FullName(); last.Kind != "activity-start" || last.Detail != want {
		t.Fatalf("launch recorded %+v, want an activity-start with detail %q", last, want)
	}
	mon.ActivityStarted(w.Dev.Engine.Now(), w.Malware.UID, act, false)
	evs = mon.Events()
	if got, want := evs[len(evs)-1].Detail, "implicit "+act.FullName(); got != want {
		t.Fatalf("implicit start detail %q, want %q", got, want)
	}
	n := len(evs)
	start := func() { mon.ActivityStarted(w.Dev.Engine.Now(), launcher, act, true) }
	if allocs := testing.AllocsPerRun(100, start); allocs != 0 {
		t.Fatalf("a launcher launch allocated %.1f times, want 0 beyond the history's growth", allocs)
	}
	evs = mon.Events()
	if len(evs) != n+101 || evs[n].Detail != "explicit "+act.FullName() || evs[n-1].Detail != "implicit "+act.FullName() {
		t.Fatalf("history after 101 launches: %d events, details %q then %q", len(evs), evs[n-1].Detail, evs[n].Detail)
	}
}
