package eandroid_test

// Ablation benchmarks for the design choices DESIGN.md calls out:
// exact interval integration vs sampling, the cost of the monitor's
// chain traversal as attack chains deepen, per-event hook overhead
// across the three device configurations, and the two collateral charge
// policies.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// unchecked keeps the invariant checker off the benchmarked devices:
// they price design choices other than the checker.
var unchecked = &check.Options{Disabled: true}

// BenchmarkMeterAccrue measures exact interval integration as the number
// of active apps grows.
func BenchmarkMeterAccrue(b *testing.B) {
	for _, nUIDs := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("uids=%d", nUIDs), func(b *testing.B) {
			e := sim.NewEngine()
			bat, err := hw.NewBattery(1e18)
			if err != nil {
				b.Fatal(err)
			}
			m, err := hw.NewMeter(e.Now, hw.Nexus4(), bat)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < nUIDs; i++ {
				m.SetCPUUtil(app.UID(10000+i), 0.3)
			}
			m.SetScreen(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.RunFor(time.Second); err != nil {
					b.Fatal(err)
				}
				m.Flush()
			}
		})
	}
}

// BenchmarkMonitorChainDepth measures collateral accrual as the attack
// chain deepens (A drives B drives C drives ...).
func BenchmarkMonitorChainDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			dev, err := device.New(device.Config{BatteryJ: 1e18, EAndroid: true, Checks: unchecked})
			if err != nil {
				b.Fatal(err)
			}
			apps := make([]*app.App, depth+1)
			for i := range apps {
				pkg := fmt.Sprintf("com.chain.n%d", i)
				apps[i] = dev.Packages.MustInstall(manifest.NewBuilder(pkg, pkg).
					Activity("Main", true).
					Service("Svc", true).
					MustBuild())
				if err := apps[i].SetWorkload("Svc", app.Workload{CPUActive: 0.05}); err != nil {
					b.Fatal(err)
				}
			}
			// Build the chain with service binds: n0 -> n1 -> ... -> nD.
			for i := 0; i < depth; i++ {
				if _, err := dev.Services.Bind(intent.Intent{
					Sender:    apps[i].UID,
					Component: apps[i+1].Package() + "/Svc",
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dev.Run(time.Second); err != nil {
					b.Fatal(err)
				}
				dev.Flush()
			}
		})
	}
}

// BenchmarkCrossAppStart isolates the per-event hook overhead Figure 10
// aggregates: one cross-app activity start + finish per iteration.
func BenchmarkCrossAppStart(b *testing.B) {
	configs := []struct {
		name string
		cfg  device.Config
	}{
		{"android", device.Config{BatteryJ: 1e18, Checks: unchecked}},
		{"framework-only", device.Config{BatteryJ: 1e18, EAndroid: true, MonitorMode: core.FrameworkOnly, Checks: unchecked}},
		{"complete", device.Config{BatteryJ: 1e18, EAndroid: true, MonitorMode: core.Complete, Checks: unchecked}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			dev, err := device.New(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			caller := dev.Packages.MustInstall(manifest.NewBuilder("com.x", "X").
				Activity("Main", true).MustBuild())
			dev.Packages.MustInstall(manifest.NewBuilder("com.y", "Y").
				Activity("Main", true).MustBuild())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := dev.StartActivity(caller.UID, "com.y/Main")
				if err != nil {
					b.Fatal(err)
				}
				if err := dev.Activities.Finish(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChargePolicies compares the paper's full-to-each policy with
// the split refinement on the hybrid chain scenario.
func BenchmarkChargePolicies(b *testing.B) {
	for _, pol := range []core.ChargePolicy{core.ChargeFullToEach, core.ChargeSplit} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := scenario.NewWorld(device.Config{
					EAndroid:         true,
					CollateralPolicy: pol,
					Checks:           unchecked,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := w.HybridChain(); err != nil {
					b.Fatal(err)
				}
				w.Dev.Flush()
			}
		})
	}
}

// BenchmarkSampledVsExact compares the exact interval accountant with
// the 1 Hz utilization sampler on the same workload.
func BenchmarkSampledVsExact(b *testing.B) {
	run := func(b *testing.B, sampled bool) {
		for i := 0; i < b.N; i++ {
			dev, err := device.New(device.Config{BatteryJ: 1e18, Checks: unchecked})
			if err != nil {
				b.Fatal(err)
			}
			a := dev.Packages.MustInstall(manifest.NewBuilder("com.s", "S").
				Activity("Main", true).MustBuild())
			if err := a.SetWorkload("Main", app.Workload{CPUActive: 0.5}); err != nil {
				b.Fatal(err)
			}
			if sampled {
				s, err := accounting.NewSampled(dev.Engine, dev.Meter, dev.Packages, time.Second)
				if err != nil {
					b.Fatal(err)
				}
				s.Start()
			}
			if _, err := dev.Activities.UserStartApp("com.s"); err != nil {
				b.Fatal(err)
			}
			if err := dev.Run(60 * time.Second); err != nil {
				b.Fatal(err)
			}
			dev.Flush()
		}
	}
	b.Run("exact", func(b *testing.B) { run(b, false) })
	b.Run("sampled-1hz", func(b *testing.B) { run(b, true) })
}

// BenchmarkEnergyEfficiency reruns the §VI-B parity check as a bench:
// scene #1 with and without the monitor.
func BenchmarkEnergyEfficiency(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "android"
		if enabled {
			name = "eandroid"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := scenario.NewWorld(device.Config{EAndroid: enabled, Checks: unchecked})
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Scene1MessageFilm(); err != nil {
					b.Fatal(err)
				}
				w.Dev.Flush()
			}
		})
	}
}

// BenchmarkCPUModels compares the linear CPU model with the DVFS ladder
// on the same 60 s workload, reporting the attributed energy as a bench
// metric.
func BenchmarkCPUModels(b *testing.B) {
	models := []struct {
		name    string
		profile hw.Profile
	}{
		{"linear", hw.Nexus4()},
		{"dvfs", hw.Nexus4DVFS()},
	}
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			var lastJ float64
			for i := 0; i < b.N; i++ {
				dev, err := device.New(device.Config{Profile: m.profile, BatteryJ: 1e18, Checks: unchecked})
				if err != nil {
					b.Fatal(err)
				}
				a := dev.Packages.MustInstall(manifest.NewBuilder("com.w", "W").
					Activity("Main", true).MustBuild())
				if err := a.SetWorkload("Main", app.Workload{CPUActive: 0.2}); err != nil {
					b.Fatal(err)
				}
				if _, err := dev.Activities.UserStartApp("com.w"); err != nil {
					b.Fatal(err)
				}
				if err := dev.Run(60 * time.Second); err != nil {
					b.Fatal(err)
				}
				dev.Flush()
				lastJ = dev.Android.AppJ(a.UID)
			}
			b.ReportMetric(lastJ, "J-attributed")
		})
	}
}
