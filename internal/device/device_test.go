package device

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/manifest"
)

func TestDefaultsApplied(t *testing.T) {
	dev, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dev.Android.Policy() != accounting.BatteryStats {
		t.Fatalf("policy = %v", dev.Android.Policy())
	}
	if dev.Battery.CapacityJ() != hw.NexusBatteryJ {
		t.Fatalf("capacity = %v", dev.Battery.CapacityJ())
	}
	if dev.EAndroid != nil {
		t.Fatal("monitor present by default")
	}
	if !dev.Power.ScreenOn() {
		t.Fatal("screen should start on")
	}
	// Launcher and resolver are installed.
	if dev.Packages.ByPackage("android.launcher") == nil ||
		dev.Packages.ByPackage("android.resolver") == nil {
		t.Fatal("system apps missing")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New(Config{BatteryJ: -5}); err == nil {
		t.Fatal("negative battery accepted")
	}
	bad := hw.Nexus4()
	bad.CPUFull = -1
	if _, err := New(Config{Profile: bad}); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{BatteryJ: -1})
}

func TestForegroundFeedsAccountant(t *testing.T) {
	dev, err := New(Config{Policy: accounting.PowerTutor})
	if err != nil {
		t.Fatal(err)
	}
	a := dev.Packages.MustInstall(manifest.NewBuilder("com.a", "A").
		Activity("Main", true).MustBuild())
	if _, err := dev.Activities.UserStartApp("com.a"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	dev.Flush()
	// Under PowerTutor the foreground app (A) is charged the screen.
	if row := dev.Android.AppRow(a.UID); row.J(hw.Screen) <= 0 {
		t.Fatal("foreground screen attribution missing")
	}
}

func TestScreenAttributionSplitsAtForegroundChange(t *testing.T) {
	// The meter must flush before the accountant's foreground switches,
	// or screen energy earned by the old app bleeds onto the new one.
	dev, err := New(Config{Policy: accounting.PowerTutor})
	if err != nil {
		t.Fatal(err)
	}
	a := dev.Packages.MustInstall(manifest.NewBuilder("com.a", "A").
		Activity("Main", true).MustBuild())
	b := dev.Packages.MustInstall(manifest.NewBuilder("com.b", "B").
		Activity("Main", true).MustBuild())
	if _, err := dev.Activities.UserStartApp("com.a"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Activities.UserStartApp("com.b"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	dev.Flush()
	ra, rb := dev.Android.AppRow(a.UID), dev.Android.AppRow(b.UID)
	sa, sb := ra.J(hw.Screen), rb.J(hw.Screen)
	if sa <= 0 || sb <= 0 {
		t.Fatalf("screen split missing: a=%v b=%v", sa, sb)
	}
	if math.Abs(sa/sb-2.0) > 0.01 {
		t.Fatalf("screen ratio = %v, want 2.0 (20s vs 10s)", sa/sb)
	}
}

func TestMonitorWiring(t *testing.T) {
	dev, err := New(Config{EAndroid: true})
	if err != nil {
		t.Fatal(err)
	}
	if dev.EAndroid == nil || dev.EAndroid.Mode() != core.Complete {
		t.Fatal("monitor not wired")
	}
	views := dev.EAndroidView() + dev.AttackView() + dev.AndroidView()
	if strings.Contains(views, "disabled") {
		t.Fatal("views should be live")
	}
}

func TestBatteryHelpers(t *testing.T) {
	dev, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if dev.BatteryPercent() >= 100 || dev.DrainedJ() <= 0 {
		t.Fatalf("pct=%v drained=%v", dev.BatteryPercent(), dev.DrainedJ())
	}
}

func TestAtScheduling(t *testing.T) {
	dev, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	dev.At(5*time.Second, "x", func() { ran = true })
	if err := dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("scheduled fn did not run")
	}
}

func TestReport(t *testing.T) {
	dev, err := New(Config{EAndroid: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rep := dev.Report()
	for _, want := range []string{"Device report", "battery:", "screen:", "foreground:", "Launcher", "Battery view"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// A stock device's report omits the monitor sections.
	stock, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stock.Report(), "E-Android over") {
		t.Fatal("stock report should omit monitor view")
	}
}
