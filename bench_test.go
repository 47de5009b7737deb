package eandroid_test

// One benchmark per table/figure in the paper's evaluation. Each bench
// regenerates the corresponding experiment end to end: workload
// generation, simulation, attribution and rendering. Run with
//
//	go test -bench=. -benchmem
//
// The absolute wall-clock numbers are properties of this machine; the
// paper-facing outputs (energy attributions, rates, orderings) are
// asserted by the test suite and recorded in EXPERIMENTS.md.

import (
	"context"
	"testing"
	"time"

	"repro/internal/antutu"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fleet/population"
	"repro/internal/scenario"
)

func requireNoErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig1MessageFilming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig1(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig2AppStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig2()
		requireNoErr(b, err)
	}
}

func BenchmarkFig3DrainCurves(b *testing.B) {
	// The full sweep simulates ~65 h of virtual time across five
	// configurations; a coarser step keeps each iteration fast while
	// exercising the identical code path.
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig3WithStep(scenario.NewWorld, 10*time.Minute)
		requireNoErr(b, err)
	}
}

func BenchmarkFig6MultiCollateral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig6(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig7HybridChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig7(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig8Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig8(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig9aScene1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig9a(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig9bScene2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig9b(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig9cAttack3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig9c(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig9dAttack4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig9d(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig9eAttack5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig9e(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig9fAttack6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig9f(scenario.NewWorld)
		requireNoErr(b, err)
	}
}

func BenchmarkFig10MicroOps(b *testing.B) {
	// 10 reps per op per config inside each iteration; the standalone
	// cmd/benchsuite runs the paper's full 50.
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig10WithReps(10)
		requireNoErr(b, err)
	}
}

func BenchmarkFig11AnTuTu(b *testing.B) {
	cfg := antutu.Config{IntOps: 200_000, FloatOps: 200_000, MemBytes: 1 << 18, UXOps: 100}
	for i := 0; i < b.N; i++ {
		_, err := experiments.Fig11WithConfig(cfg)
		requireNoErr(b, err)
	}
}

// benchFleet runs the scaling workload (stealth attack + power-signature
// sampling over a 30-minute virtual window per device) at the given
// fleet size and worker count. The BenchmarkFleet{1,4,16,64} series
// records the size trajectory; the Workers pair records pool speedup
// (meaningful only on multicore hardware — per-device engines stay
// single-threaded, so parallelism is across devices).
func benchFleet(b *testing.B, devices, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fr, err := experiments.FleetBenchStudy(devices, workers, 42)
		requireNoErr(b, err)
		if fr.Summary.Failed != 0 {
			b.Fatalf("%d devices failed", fr.Summary.Failed)
		}
	}
}

func BenchmarkFleet1(b *testing.B)  { benchFleet(b, 1, 0) }
func BenchmarkFleet4(b *testing.B)  { benchFleet(b, 4, 0) }
func BenchmarkFleet16(b *testing.B) { benchFleet(b, 16, 0) }
func BenchmarkFleet64(b *testing.B) { benchFleet(b, 64, 0) }

func BenchmarkFleet64Workers1(b *testing.B) { benchFleet(b, 64, 1) }
func BenchmarkFleet64Workers8(b *testing.B) { benchFleet(b, 64, 8) }

// BenchmarkFleetPopulation256 runs the default population fleet (the
// cohort mixture of the default fleet path, checker on every device)
// over 256 devices for the population's 1 h horizon on the default
// worker count. Its devices fire a few kernel events per simulated
// hour, where BenchmarkFleet64's stealth-detector devices are
// dominated by the engine and the detector. With scripts generated
// into pooled buffers and the demo cast shared, running the script
// (engine, meter and checker) takes about half the CPU and device.New
// about half the allocated bytes. Generating the script takes about a
// tenth of the CPU, of which its random source, seeded in O(1)
// (internal/corpus/source.go), takes about a quarter.
func BenchmarkFleetPopulation256(b *testing.B) {
	pop := population.Default()
	spec, err := pop.FleetSpec(256, 0, 0, 42)
	requireNoErr(b, err)
	for i := 0; i < b.N; i++ {
		fr, err := fleet.Run(context.Background(), spec)
		requireNoErr(b, err)
		if fr.Summary.Failed != 0 {
			b.Fatalf("%d devices failed", fr.Summary.Failed)
		}
	}
}
