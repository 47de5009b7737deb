package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readArtifact loads an artifact a test run wrote.
func readArtifact(t *testing.T, path string) artifact {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a artifact
	if err := json.Unmarshal(blob, &a); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if a.Host.CPUs <= 0 || a.Host.GOMAXPROCS <= 0 || a.Host.Go == "" {
		t.Fatalf("artifact host = %+v", a.Host)
	}
	return a
}

// The fleet tests run the committed study's 64 devices: the speedup
// gate binds on every host, and a fleet of a few devices finishes in
// about a millisecond, shorter than an OS time slice, so on a loaded
// host its speedup measures the scheduler rather than the fleet.
func TestFleetBenchWritesArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	if err := run([]string{"-fleet", "64", "-workers", "2", "-out", out}); err != nil {
		t.Fatal(err)
	}
	a := readArtifact(t, out)
	if a.Study != "fleet" || a.Devices != 64 || len(a.Modes) != 2 || a.Counts["deterministic"] != 1 {
		t.Fatalf("artifact = %+v", a)
	}
	if a.Counts["total_drained_j"] <= 0 || a.Counts["detection_rate"] != 1 {
		t.Fatalf("counts = %+v", a.Counts)
	}
	cpus := min(a.Host.CPUs, a.Host.GOMAXPROCS)
	if g := a.Gates[0]; g.Name != "speedup" || g.Limit != fleetSpeedupFloor(2, cpus) || !g.Pass {
		t.Fatalf("speedup gate = %+v", g)
	}
}

// TestFleetBenchNoArtifact: an explicit empty -out writes nothing, not
// even the default BENCH_fleet.json.
func TestFleetBenchNoArtifact(t *testing.T) {
	dir := t.TempDir()
	chdir(t, dir)
	if err := run([]string{"-fleet", "64", "-workers", "2", "-out", ""}); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("-out '' left %v (err %v)", entries, err)
	}
}

// chdir moves the test into dir until it ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestBenchCompareLoop drives the -benchcmp loop over a one-study table
// with a committed artifact: the rerun happens at the committed shape,
// and each kind of failure is reported.
func TestBenchCompareLoop(t *testing.T) {
	chdir(t, t.TempDir())
	committed := artifact{
		Study:  "fake",
		shape:  shape{Reps: 7, Seed: 9},
		Modes:  []mode{{Name: "base", WallMS: 10}},
		Counts: map[string]float64{"bytes": 100},
		Detail: json.RawMessage(`{"cells": [1, 2]}`),
	}
	blob, err := json.Marshal(committed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_fake.json", blob, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func(saved []study) { studies = saved }(studies)
	for _, c := range []struct {
		wall, bytes float64
		detail      string
		gateErr     error
		fails       string
	}{
		{11.4, 114, `{"cells":[1,2]}`, nil, ""},
		{11.6, 100, `{"cells":[1,2]}`, nil, "fake/base"},
		{10, 116, `{"cells":[1,2]}`, nil, "fake/bytes"},
		{10, 100, `{"cells":[2,1]}`, nil, "diverged"},
		{10, 100, `{"cells":[1,2]}`, errors.New("fake gate failed"), "fake gate failed"},
	} {
		studies = []study{{"fake", func(sh shape) (*artifact, error) {
			if sh != committed.shape {
				t.Fatalf("rerun at %+v, want the committed %+v", sh, committed.shape)
			}
			return &artifact{
				Modes:  []mode{{Name: "base", WallMS: c.wall}},
				Counts: map[string]float64{"bytes": c.bytes},
				Detail: json.RawMessage(c.detail),
			}, c.gateErr
		}, []string{"base", "bytes"}}}
		err := benchCompare()
		if (err == nil) != (c.fails == "") || (err != nil && !strings.Contains(err.Error(), c.fails)) {
			t.Errorf("%+v: benchcmp err = %v, want failure %q", c, err, c.fails)
		}
	}
}

// The speedup floor is 37.5% parallel efficiency over the CPUs the
// workers can use: it binds on a 1-CPU host, on the 2-CPU case the
// tests run, and at the 3x the 8-worker study was written for.
func TestFleetSpeedupFloor(t *testing.T) {
	for _, c := range []struct {
		workers, cpus int
		want          float64
	}{
		{8, 1, 0.375},
		{2, 2, 0.75},
		{8, 2, 0.75},
		{8, 8, 3},
		{8, 64, 3},
	} {
		if got := fleetSpeedupFloor(c.workers, c.cpus); got != c.want {
			t.Errorf("floor(%d workers, %d cpus) = %v, want %v", c.workers, c.cpus, got, c.want)
		}
	}
}

func TestMicroOnly(t *testing.T) {
	if err := run([]string{"-micro", "-reps", "6"}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyOnly(t *testing.T) {
	if err := run([]string{"-energy"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadReps(t *testing.T) {
	if err := run([]string{"-micro", "-reps", "1"}); err == nil {
		t.Fatal("too-few reps accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestObsvBenchWritesArtifact runs a small observability overhead study
// and checks the artifact schema. The wall-time gate itself is not
// asserted here (2 reps on a loaded CI box is not a measurement); the
// study's sanity side — findings and flame stacks from the stealth
// run — must hold regardless.
func TestObsvBenchWritesArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_obsv.json")
	err := run([]string{"-obsv", "-reps", "2", "-out", out})
	if _, statErr := os.Stat(out); statErr != nil {
		t.Fatalf("artifact not written (run err: %v): %v", err, statErr)
	}
	a := readArtifact(t, out)
	if a.Study != "obsv" || a.Reps != 2 || len(a.Modes) != 2 || a.Modes[0].WallMS <= 0 || a.Modes[1].WallMS <= 0 {
		t.Fatalf("artifact = %+v", a)
	}
	if a.Counts["findings"] == 0 || a.Counts["flame_stacks"] == 0 {
		t.Fatalf("stealth run produced no observability output: %+v", a.Counts)
	}
	if len(a.Gates) != 1 || a.Gates[0].Name != "enabled" || a.Gates[0].Limit != 120 {
		t.Fatalf("gate drifted: %+v", a.Gates)
	}
}
