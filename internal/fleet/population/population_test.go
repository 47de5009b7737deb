package population

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fleet"
)

// Assignment must be a pure function of (seed, index) and must track
// the cohort weights over a large draw.
func TestAssignDeterministicAndWeighted(t *testing.T) {
	pop := Default()
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	total := pop.totalWeight()
	counts := make([]int, len(pop.Cohorts))
	for i := 0; i < n; i++ {
		ci := pop.Assign(42, i)
		if again := pop.Assign(42, i); again != ci {
			t.Fatalf("Assign(42, %d) unstable: %d then %d", i, ci, again)
		}
		counts[ci]++
	}
	for ci, c := range pop.Cohorts {
		want := float64(n) * float64(c.Weight) / float64(total)
		got := float64(counts[ci])
		// ±25% relative tolerance: generous enough for a 20k uniform
		// draw, tight enough to catch a broken modulus or an off-by-one
		// walking the weight table.
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("cohort %s: %d devices, want ~%.0f (weight %d/%d)",
				c.Name, counts[ci], want, c.Weight, total)
		}
	}
	// A different seed must produce a different assignment somewhere.
	same := true
	for i := 0; i < n && same; i++ {
		same = pop.Assign(42, i) == pop.Assign(43, i)
	}
	if same {
		t.Error("assignment ignores the seed")
	}
}

func TestValidateRejectsBadPopulations(t *testing.T) {
	if err := (&Population{}).Validate(); err == nil {
		t.Error("empty population validated")
	}
	bad := Default()
	bad.Cohorts[0].Weight = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-weight cohort validated")
	}
	short := Default()
	short.Horizon = corpus.MinHorizon / 2
	if err := short.Validate(); err == nil {
		t.Error("sub-minimum horizon validated")
	}
}

// A population fleet must run the streaming path end to end: no
// retained results, every device folded, and the merged summary
// byte-identical across worker counts.
func TestFleetSpecStreamsByteIdentical(t *testing.T) {
	const devices = 12
	run := func(workers int) *fleet.FleetResult {
		pop := Default()
		spec, err := pop.FleetSpec(devices, workers, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := fleet.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	base := run(1)
	if base.Summary.Devices != devices || base.Summary.Failed != 0 {
		t.Fatalf("summary devices=%d failed=%d, want %d/0 (failures: %v)",
			base.Summary.Devices, base.Summary.Failed, devices, base.Summary.Failures)
	}
	if base.Summary.TotalDrainedJ <= 0 || base.Summary.TotalSimH <= 0 {
		t.Fatalf("population fleet simulated nothing: drained %.1f J over %.2f sim-h",
			base.Summary.TotalDrainedJ, base.Summary.TotalSimH)
	}
	golden := base.Summary.Render(7)
	if got := run(4).Summary.Render(7); got != golden {
		t.Errorf("summary differs at workers=4:\n--- base ---\n%s\n--- got ---\n%s", golden, got)
	}
}

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// A population device allocates only its own state: the demo cast's
// manifests and workload tables and the archetype models are built
// once per process, and each script is generated into a pooled
// generator's buffers. Measured over a 64-device fleet on one worker,
// after a warm-up run has filled the pools.
func TestPopulationDeviceAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops pooled items at random, so generators are rebuilt")
	}
	const devices = 64
	pop := Default()
	spec, err := pop.FleetSpec(devices, 1, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		fr, err := fleet.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Summary.Failed != 0 {
			t.Fatalf("%d devices failed: %v", fr.Summary.Failed, fr.Summary.Failures)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perDevice := float64(after.TotalAlloc-before.TotalAlloc) / devices
	t.Logf("%.0f bytes allocated per device", perDevice)
	if perDevice > 16<<10 {
		t.Fatalf("a population device allocated %.0f bytes, want at most 16 KiB", perDevice)
	}
}
