package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestFleetStealthStudy(t *testing.T) {
	fr, _, err := FleetStealthStudy(4, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Summary.Failed != 0 {
		t.Fatalf("failed devices: %d", fr.Summary.Failed)
	}
	// Every device mounts the stealth hijack, so the fleet detection
	// rate is total.
	if fr.Summary.DetectionRate() != 1 {
		t.Fatalf("detection rate = %v, want 1", fr.Summary.DetectionRate())
	}
	if fr.Summary.Attacks < 4 {
		t.Fatalf("attacks = %d, want >= 4", fr.Summary.Attacks)
	}
}

func TestFleetDrainStudy(t *testing.T) {
	res, err := FleetDrainStudy(2, 2, 7, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Devices); got != 2*len(DrainConfigs()) {
		t.Fatalf("devices = %d, want %d", got, 2*len(DrainConfigs()))
	}
	for _, name := range DrainConfigs() {
		if res.MeanJ[name] <= 0 {
			t.Fatalf("config %s drained nothing", name)
		}
	}
	// Physics check mirroring Figure 3's ordering: full brightness must
	// out-drain minimal brightness over the same window.
	if res.MeanJ["brightness_full"] <= res.MeanJ["brightness_low"] {
		t.Fatalf("brightness_full (%.1f J) should out-drain brightness_low (%.1f J)",
			res.MeanJ["brightness_full"], res.MeanJ["brightness_low"])
	}
	if !strings.Contains(res.Render(), "Fleet drain study") {
		t.Fatal("render missing header")
	}
}

func TestFleetDrainStudyRejectsBadArgs(t *testing.T) {
	if _, err := FleetDrainStudy(0, 1, 1, time.Minute); err == nil {
		t.Fatal("zero replicas accepted")
	}
	if _, err := FleetDrainStudy(1, 1, 1, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

// The fleet-parallel Figure 3 sweep must reproduce the serial sweep
// exactly: same curves, same render, whatever the worker count.
func TestFig3WorkersMatchesSerial(t *testing.T) {
	serial, err := Fig3WithStep(15 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig3WithStepWorkers(15*time.Minute, 3)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != par.Render() {
		t.Fatalf("parallel Fig3 diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.Render(), par.Render())
	}
	if _, err := Fig3WithStepWorkers(0, 2); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestExtFleet(t *testing.T) {
	res, err := ExtFleet()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"fleet-parallel studies", "stealth auto-launch fleet", "drain fleet"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
