package eandroid_test

// Determinism golden tests: the simulation's core contract is that the
// same Config + seed produces byte-identical output, and that a fleet's
// aggregate is byte-identical for any worker count. A diff here means
// some subsystem consulted the wall clock, iterated a map into output,
// or shared state across devices.

import (
	"context"
	"testing"
	"time"

	eandroid "repro"
)

// scriptedRun builds a device, mounts a multi-vector attack through the
// public API and returns the rendered E-Android view.
func scriptedRun(t *testing.T, seed int64) string {
	t.Helper()
	dev := eandroid.MustNew(eandroid.Config{EAndroid: true, Seed: seed})
	victim, mal := installPair(t, dev)
	if _, err := dev.Activities.UserStartApp("com.pub.mal"); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.StartActivity(mal.UID, "com.pub.victim/Main"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.BindService(mal.UID, "com.pub.victim/Work"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = victim
	return dev.EAndroidView() + dev.AttackView() + dev.Report()
}

func TestSameSeedByteIdentical(t *testing.T) {
	first := scriptedRun(t, 1234)
	second := scriptedRun(t, 1234)
	if first != second {
		t.Fatalf("same Config+seed diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// fleetViews runs a 2-device fleet at the given worker count and
// returns the aggregate render plus each device's full E-Android view.
// Each device's Scenario runs the horizon itself and keeps its view in
// a slice indexed by device.
func fleetViews(t *testing.T, workers int) string {
	t.Helper()
	const devices = 2
	views := make([]string, devices)
	fr, err := eandroid.RunFleet(context.Background(), eandroid.FleetSpec{
		Devices:       devices,
		Workers:       workers,
		Seed:          99,
		RetainResults: true, // the render lists every device
		Config:        eandroid.Config{EAndroid: true},
		Scenario: func(i int, dev *eandroid.Device) error {
			mal, err := dev.Packages.Install(
				eandroid.NewManifest("com.det.mal", "Mal").Activity("Main", true).MustBuild())
			if err != nil {
				return err
			}
			victim, err := dev.Packages.Install(
				eandroid.NewManifest("com.det.victim", "Victim").
					Activity("Main", true).Service("Work", true).MustBuild())
			if err != nil {
				return err
			}
			if err := victim.SetWorkload("Work", eandroid.Workload{CPUActive: 0.4}); err != nil {
				return err
			}
			if _, err := dev.Activities.UserStartApp("com.det.mal"); err != nil {
				return err
			}
			if _, err := dev.BindService(mal.UID, "com.det.victim/Work"); err != nil {
				return err
			}
			if err := dev.Run(30 * time.Second); err != nil {
				return err
			}
			views[i] = dev.EAndroidView()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fr.Summary.Failures {
		t.Fatalf("device %d: %s", f.Index, f.Err)
	}
	out := fr.Render()
	for _, v := range views {
		out += v
	}
	return out
}

func TestFleetByteIdenticalAcrossWorkerCounts(t *testing.T) {
	one := fleetViews(t, 1)
	two := fleetViews(t, 2)
	if one != two {
		t.Fatalf("fleet output depends on worker count:\n--- workers=1 ---\n%s\n--- workers=2 ---\n%s", one, two)
	}
}
