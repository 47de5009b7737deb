package display

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/sim"
)

type recorder struct {
	events []string
}

func (r *recorder) BrightnessChanged(t sim.Time, by app.UID, source Source, old, new int) {
	r.events = append(r.events, fmt.Sprintf("bright:%d->%d:%s", old, new, source))
}

func (r *recorder) ModeChanged(t sim.Time, by app.UID, source Source, old, new Mode) {
	r.events = append(r.events, fmt.Sprintf("mode:%s->%s:%s", old, new, source))
}

func fixture(t *testing.T) (*sim.Engine, *hw.Meter, *app.PackageManager, *Display, *recorder) {
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
	d, err := New(e, meter, pm)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	d.AddHooks(rec)
	return e, meter, pm, d, rec
}

func installWriter(t *testing.T, pm *app.PackageManager, pkg string) *app.App {
	t.Helper()
	return pm.MustInstall(manifest.NewBuilder(pkg, pkg).
		Permission(manifest.PermWriteSettings).
		Activity("Main", true).
		MustBuild())
}

func TestDefaults(t *testing.T) {
	_, meter, _, d, _ := fixture(t)
	if d.Mode() != Manual {
		t.Fatalf("mode = %v", d.Mode())
	}
	if d.Brightness() != DefaultBrightness || meter.Brightness() != DefaultBrightness {
		t.Fatalf("brightness = %d", d.Brightness())
	}
}

func TestAppWriteRequiresPermission(t *testing.T) {
	_, _, pm, d, _ := fixture(t)
	noPerm := pm.MustInstall(manifest.NewBuilder("com.noperm", "x").
		Activity("Main", true).MustBuild())
	err := d.SetBrightness(noPerm.UID, SourceApp, 255)
	if err == nil || !strings.Contains(err.Error(), manifest.PermWriteSettings) {
		t.Fatalf("err = %v, want WRITE_SETTINGS failure", err)
	}
	if err := d.SetMode(noPerm.UID, SourceApp, Auto); err == nil {
		t.Fatal("mode change without permission accepted")
	}
	if err := d.SetBrightness(12345, SourceApp, 255); err == nil {
		t.Fatal("unknown uid accepted")
	}
}

func TestSystemAppBypassesPermission(t *testing.T) {
	_, _, pm, d, _ := fixture(t)
	sys, err := pm.InstallSystem(manifest.NewBuilder("android.systemui", "SystemUI").
		Activity("Main", true).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetBrightness(sys.UID, SourceApp, 200); err != nil {
		t.Fatal(err)
	}
}

func TestManualBrightnessAppliesImmediately(t *testing.T) {
	_, meter, pm, d, rec := fixture(t)
	a := installWriter(t, pm, "com.a")
	if err := d.SetBrightness(a.UID, SourceApp, 255); err != nil {
		t.Fatal(err)
	}
	if meter.Brightness() != 255 {
		t.Fatalf("applied = %d", meter.Brightness())
	}
	if len(rec.events) != 1 || rec.events[0] != "bright:102->255:app" {
		t.Fatalf("events = %v", rec.events)
	}
}

func TestAutoModeDefersAppWrites(t *testing.T) {
	_, meter, pm, d, _ := fixture(t)
	a := installWriter(t, pm, "com.a")
	if err := d.SetMode(a.UID, SourceApp, Auto); err != nil {
		t.Fatal(err)
	}
	if err := d.SetBrightness(a.UID, SourceApp, 255); err != nil {
		t.Fatal(err)
	}
	if meter.Brightness() == 255 {
		t.Fatal("auto mode should not apply app writes")
	}
	if d.SavedBrightness() != 255 {
		t.Fatalf("saved = %d, want 255", d.SavedBrightness())
	}
	// Flipping to manual applies the saved value — the paper's malware #5
	// trick.
	if err := d.SetMode(a.UID, SourceApp, Manual); err != nil {
		t.Fatal(err)
	}
	if meter.Brightness() != 255 {
		t.Fatalf("manual switch should apply saved value, got %d", meter.Brightness())
	}
}

func TestSensorDrivesAutoMode(t *testing.T) {
	_, meter, pm, d, _ := fixture(t)
	a := installWriter(t, pm, "com.a")
	d.SensorReading(30)
	if meter.Brightness() == 30 {
		t.Fatal("sensor should not apply in manual mode")
	}
	if err := d.SetMode(a.UID, SourceApp, Auto); err != nil {
		t.Fatal(err)
	}
	if meter.Brightness() != 30 {
		t.Fatalf("switching to auto should apply sensor level, got %d", meter.Brightness())
	}
	d.SensorReading(90)
	if meter.Brightness() != 90 {
		t.Fatalf("sensor reading not applied, got %d", meter.Brightness())
	}
}

func TestSystemUISliderLeavesAutoMode(t *testing.T) {
	_, meter, pm, d, _ := fixture(t)
	a := installWriter(t, pm, "com.a")
	if err := d.SetMode(a.UID, SourceApp, Auto); err != nil {
		t.Fatal(err)
	}
	// The user drags the brightness slider: mode returns to manual and
	// the value applies.
	if err := d.SetBrightness(app.UIDSystem, SourceSystemUI, 10); err != nil {
		t.Fatal(err)
	}
	if d.Mode() != Manual {
		t.Fatalf("mode = %v, want manual after slider", d.Mode())
	}
	if meter.Brightness() != 10 {
		t.Fatalf("brightness = %d", meter.Brightness())
	}
}

func TestClamping(t *testing.T) {
	_, meter, pm, d, _ := fixture(t)
	a := installWriter(t, pm, "com.a")
	if err := d.SetBrightness(a.UID, SourceApp, 999); err != nil {
		t.Fatal(err)
	}
	if meter.Brightness() != 255 {
		t.Fatalf("brightness = %d, want clamp 255", meter.Brightness())
	}
	if err := d.SetBrightness(a.UID, SourceApp, -1); err != nil {
		t.Fatal(err)
	}
	if meter.Brightness() != 0 {
		t.Fatalf("brightness = %d, want clamp 0", meter.Brightness())
	}
}

func TestInvalidMode(t *testing.T) {
	_, _, pm, d, _ := fixture(t)
	a := installWriter(t, pm, "com.a")
	if err := d.SetMode(a.UID, SourceApp, Mode(0)); err == nil {
		t.Fatal("invalid mode accepted")
	}
}

func TestModeChangeEmitsHooks(t *testing.T) {
	_, _, pm, d, rec := fixture(t)
	a := installWriter(t, pm, "com.a")
	if err := d.SetMode(a.UID, SourceApp, Auto); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range rec.events {
		if ev == "mode:manual->auto:app" {
			found = true
		}
	}
	if !found {
		t.Fatalf("events = %v, want mode change", rec.events)
	}
	// Setting same mode again: no event.
	n := len(rec.events)
	if err := d.SetMode(a.UID, SourceApp, Auto); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != n {
		t.Fatal("idempotent mode set should not emit")
	}
}

func TestStringers(t *testing.T) {
	if Manual.String() != "manual" || Auto.String() != "auto" {
		t.Fatal("mode names")
	}
	if SourceApp.String() != "app" || SourceSystemUI.String() != "system-ui" || SourceSensor.String() != "sensor" {
		t.Fatal("source names")
	}
	if !strings.Contains(Mode(9).String(), "9") || !strings.Contains(Source(9).String(), "9") {
		t.Fatal("unknown stringers")
	}
}

func TestNewNilDeps(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}
