package eandroid_test

import (
	"strings"
	"testing"
	"time"

	eandroid "repro"
)

func installPair(t *testing.T, dev *eandroid.Device) (victim, mal *eandroid.App) {
	t.Helper()
	victim, err := dev.Packages.Install(
		eandroid.NewManifest("com.pub.victim", "Victim").
			Permission(eandroid.PermWakeLock).
			Activity("Main", true).
			Service("Work", true).
			MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.SetWorkload("Main", eandroid.Workload{CPUActive: 0.3, CPUBackground: 0.05}); err != nil {
		t.Fatal(err)
	}
	mal, err = dev.Packages.Install(
		eandroid.NewManifest("com.pub.mal", "Mal").
			Permission(eandroid.PermWakeLock, eandroid.PermWriteSettings).
			Activity("Main", true).
			MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return victim, mal
}

func TestZeroConfigDeviceWorks(t *testing.T) {
	dev, err := eandroid.New(eandroid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dev.EAndroid != nil {
		t.Fatal("monitor should be nil by default")
	}
	if err := dev.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if dev.DrainedJ() <= 0 {
		t.Fatal("idle device should still drain")
	}
	if !strings.Contains(dev.EAndroidView(), "disabled") ||
		!strings.Contains(dev.AttackView(), "disabled") {
		t.Fatal("disabled monitor should render a notice")
	}
}

func TestPublicAttackFlow(t *testing.T) {
	dev := eandroid.MustNew(eandroid.Config{EAndroid: true})
	victim, mal := installPair(t, dev)
	if _, err := dev.Activities.UserStartApp("com.pub.mal"); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.StartActivity(mal.UID, "com.pub.victim/Main"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	attacks := dev.EAndroid.Attacks()
	if len(attacks) != 1 || attacks[0].Vector != eandroid.VectorActivity {
		t.Fatalf("attacks = %v", attacks)
	}
	bd := dev.EAndroid.BreakdownFor(mal.UID, dev.Android.AppJ(mal.UID))
	if bd.TotalJ <= bd.OriginalJ {
		t.Fatal("collateral missing from breakdown")
	}
	view := dev.EAndroidView()
	if !strings.Contains(view, "+ Victim") {
		t.Fatalf("view should itemize collateral:\n%s", view)
	}
	_ = victim
}

func TestPublicServiceAndWakelockFlow(t *testing.T) {
	dev := eandroid.MustNew(eandroid.Config{EAndroid: true, Policy: eandroid.PowerTutor})
	victim, mal := installPair(t, dev)
	if _, err := dev.StartService(victim.UID, "com.pub.victim/Work"); err != nil {
		t.Fatal(err)
	}
	conn, err := dev.BindService(mal.UID, "com.pub.victim/Work")
	if err != nil {
		t.Fatal(err)
	}
	if !conn.Bound() {
		t.Fatal("connection should be bound")
	}
	wl, err := dev.Power.Acquire(mal.UID, eandroid.ScreenBrightWakeLock, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := wl.Release(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Services.Unbind(conn); err != nil {
		t.Fatal(err)
	}
	var haveBind, haveWakelock bool
	for _, a := range dev.EAndroid.Attacks() {
		switch a.Vector {
		case eandroid.VectorServiceBind:
			haveBind = true
		case eandroid.VectorWakelock:
			haveWakelock = true
		}
		if a.Active {
			t.Fatalf("attack still active after teardown: %v", a)
		}
	}
	if !haveBind || !haveWakelock {
		t.Fatalf("missing vectors: bind=%v wakelock=%v", haveBind, haveWakelock)
	}
}

func TestTransparentOverlayPublicAPI(t *testing.T) {
	dev := eandroid.MustNew(eandroid.Config{EAndroid: true})
	_, mal := installPair(t, dev)
	if _, err := dev.Activities.UserStartApp("com.pub.victim"); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.StartActivity(mal.UID, "com.pub.mal/Main",
		eandroid.TransparentActivity()); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range dev.EAndroid.Attacks() {
		if a.Vector == eandroid.VectorInterrupt {
			found = true
		}
	}
	if !found {
		t.Fatal("transparent overlay should register an interrupt attack")
	}
}

func TestConfigOverrides(t *testing.T) {
	dev := eandroid.MustNew(eandroid.Config{
		EAndroid:    true,
		MonitorMode: eandroid.FrameworkOnly,
		Policy:      eandroid.PowerTutor,
		BatteryJ:    1000,
		Profile:     eandroid.Nexus4Profile(),
	})
	if err := dev.Power.SetScreenTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if dev.EAndroid.Mode() != eandroid.FrameworkOnly {
		t.Fatal("mode override lost")
	}
	if dev.Battery.CapacityJ() != 1000 {
		t.Fatal("battery override lost")
	}
	if err := dev.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if dev.Power.ScreenOn() {
		t.Fatal("screen timeout override lost")
	}
}

func TestScheduledActions(t *testing.T) {
	dev := eandroid.MustNew(eandroid.Config{EAndroid: true})
	victim, mal := installPair(t, dev)
	_ = victim
	fired := false
	dev.At(10*time.Second, "malware-start", func() {
		fired = true
		if _, err := dev.StartActivity(mal.UID, "com.pub.victim/Main"); err != nil {
			t.Error(err)
		}
	})
	if err := dev.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("scheduled action did not fire")
	}
	if len(dev.EAndroid.Attacks()) != 1 {
		t.Fatal("scheduled attack not recorded")
	}
}

func TestPublicUnlockAndReport(t *testing.T) {
	dev := eandroid.MustNew(eandroid.Config{EAndroid: true})
	_, mal := installPair(t, dev)
	_ = mal
	if err := dev.Run(45 * time.Second); err != nil {
		t.Fatal(err)
	}
	if dev.Power.ScreenOn() {
		t.Fatal("screen should have timed out")
	}
	if _, err := dev.UserUnlock(); err != nil {
		t.Fatal(err)
	}
	if !dev.Power.ScreenOn() {
		t.Fatal("unlock should light the screen")
	}
	rep := dev.Report()
	if !strings.Contains(rep, "battery:") {
		t.Fatalf("report malformed:\n%s", rep)
	}
}

func TestPublicChargeSplitPolicy(t *testing.T) {
	dev := eandroid.MustNew(eandroid.Config{
		EAndroid:         true,
		CollateralPolicy: eandroid.ChargeSplit,
	})
	if dev.EAndroid.ChargePolicy() != eandroid.ChargeSplit {
		t.Fatal("charge policy override lost")
	}
}

func TestPublicProviderAndNetwork(t *testing.T) {
	dev := eandroid.MustNew(eandroid.Config{EAndroid: true})
	owner, err := dev.Packages.Install(
		eandroid.NewManifest("com.data", "Data").
			Provider("P", true).
			MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	caller, err := dev.Packages.Install(
		eandroid.NewManifest("com.call", "Call").
			Activity("Main", true).
			MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Providers.Query(caller.UID, "com.data/P"); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Network.SendTo(caller.UID, owner.UID, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range dev.EAndroid.Attacks() {
		if a.Vector == eandroid.VectorProvider {
			found = true
		}
	}
	if !found {
		t.Fatal("provider vector missing from public flow")
	}
}
