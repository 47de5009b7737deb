// Command benchsuite regenerates the paper's overhead study: the Table I
// / Figure 10 micro benchmark (50 reps per operation under three device
// configurations) and the Figure 11 AnTuTu comparison, plus the §VI-B
// energy-efficiency parity check. It also runs the repo's gated
// studies, one per invocation, each recorded in a BENCH_<study>.json
// artifact of one schema.
//
// Usage:
//
//	benchsuite            # everything
//	benchsuite -micro     # Figure 10 only
//	benchsuite -antutu    # Figure 11 only
//	benchsuite -energy    # energy-efficiency check only
//	benchsuite -fleet 64 -workers 8   # fleet scaling study -> BENCH_fleet.json
//	benchsuite -fleet-mem 100000      # streaming memory-budget study (peak heap + bytes/device)
//	benchsuite -telemetry             # telemetry overhead study -> BENCH_telemetry.json
//	benchsuite -check                 # invariant checker overhead study -> BENCH_check.json
//	benchsuite -obsv                  # observability overhead study -> BENCH_obsv.json
//	benchsuite -trace                 # causal-span tracing overhead study -> BENCH_trace.json
//	benchsuite -corpus                # scenario-corpus statistical replay -> BENCH_corpus.json
//	benchsuite -jobs                  # jobs control plane, cold vs cached -> BENCH_jobs.json
//	benchsuite -trace -reps 2 -out t.json   # any study: its reps, and where to write (-out '' writes nothing)
//	benchsuite -benchcmp              # rerun every study, compare against committed BENCH_*.json
//	benchsuite -cpuprofile cpu.pprof -memprofile mem.pprof -micro
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/accounting"
	"repro/internal/antutu"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fleet/population"
	"repro/internal/microbench"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	micro := fs.Bool("micro", false, "run the Figure 10 micro benchmark only")
	antutuOnly := fs.Bool("antutu", false, "run the Figure 11 AnTuTu benchmark only")
	energy := fs.Bool("energy", false, "run the energy-efficiency parity check only")
	reps := fs.Int("reps", 0, "repetitions of the micro benchmark or the selected study (0 = its default)")
	fleetN := fs.Int("fleet", 0, "run an N-device fleet scaling study")
	workers := fs.Int("workers", 0, "fleet and corpus worker count (0 = GOMAXPROCS)")
	fleetMem := fs.Int("fleet-mem", 0, "run the streaming memory-budget study over an N-device population fleet (CI uses >= 100k)")
	fleetSeed := fs.Int64("fleet-seed", 42, "fleet seed (per-device seeds derive from it)")
	telem := fs.Bool("telemetry", false, "run the telemetry overhead study")
	checkStudy := fs.Bool("check", false, "run the invariant checker overhead study")
	obsvStudy := fs.Bool("obsv", false, "run the observability-plane overhead study")
	traceStudy := fs.Bool("trace", false, "run the causal-span tracing overhead study")
	corpusStudy := fs.Bool("corpus", false, "run the scenario-corpus statistical replay (watchdog separation with Wilson CIs; interval gates bind at >= 30 reps)")
	corpusCells := fs.Int("corpus-cells", 0, "restrict the corpus to the first N canonical cells (0 = all; smoke runs use 2)")
	corpusHorizon := fs.Duration("corpus-horizon", corpus.DefaultHorizon, "virtual span of each corpus scenario")
	jobsStudy := fs.Bool("jobs", false, "run the jobs control-plane throughput study (cold vs content-addressed cache)")
	out := fs.String("out", "", "the selected study's artifact path (default BENCH_<study>.json; an explicit empty value writes nothing)")
	benchcmp := fs.Bool("benchcmp", false, "rerun every study at its committed shape and fail on a gate, a >15% regression or diverged output vs the committed BENCH_*.json")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite: memprofile:", err)
			}
		}()
	}
	if *benchcmp {
		return benchCompare()
	}
	sh := shape{Reps: *reps}
	var name string
	switch {
	case *telem:
		name = "telemetry"
	case *checkStudy:
		name = "check"
	case *obsvStudy:
		name = "obsv"
	case *traceStudy:
		name = "trace"
	case *corpusStudy:
		name, sh.Workers, sh.Cells, sh.Horizon = "corpus", *workers, *corpusCells, *corpusHorizon
	case *jobsStudy:
		name = "jobs"
	case *fleetMem > 0:
		return fleetMemStudy(*fleetMem, *workers, *fleetSeed)
	case *fleetN > 0:
		name, sh.Devices, sh.Workers, sh.Seed = "fleet", *fleetN, *workers, *fleetSeed
	}
	if name != "" {
		path := "BENCH_" + name + ".json"
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				path = *out
			}
		})
		return runStudy(studyNamed(name), sh, path)
	}
	all := !*micro && !*antutuOnly && !*energy

	if all || *micro {
		if *reps == 0 {
			*reps = microbench.DefaultReps
		}
		r, err := experiments.Fig10WithReps(*reps)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if all || *antutuOnly {
		r, err := experiments.Fig11WithConfig(antutu.Config{})
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if all || *energy {
		if err := energyParity(); err != nil {
			return err
		}
	}
	return nil
}

// shape is the configuration a study runs at. Its artifact records it,
// and -benchcmp reruns the study at the committed shape.
type shape struct {
	Reps    int           `json:"reps"`
	Devices int           `json:"devices,omitempty"`
	Workers int           `json:"workers,omitempty"`
	Seed    int64         `json:"seed,omitempty"`
	Cells   int           `json:"cells,omitempty"`
	Horizon time.Duration `json:"horizon,omitempty"`
}

// artifact is the one BENCH_<study>.json schema: what ran (study and
// shape) and where (host), each mode's wall time, the judged gates,
// and the study's counts. Detail is deterministic output that
// -benchcmp requires byte-identical (the corpus cell statistics).
type artifact struct {
	Study string `json:"study"`
	shape
	Host   host                     `json:"host"`
	Modes  []mode                   `json:"modes"`
	Gates  []experiments.GateResult `json:"gates"`
	Counts map[string]float64       `json:"counts,omitempty"`
	Detail json.RawMessage          `json:"detail,omitempty"`
}

// host is the machine an artifact was measured on.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() host {
	return host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// mode is one measured configuration: its min-over-reps wall time, and
// for an overhead study's non-baseline modes the paired overhead.
type mode struct {
	Name        string  `json:"name"`
	WallMS      float64 `json:"wall_ms"`
	OverheadPct float64 `json:"overhead_pct,omitempty"`
	Workers     int     `json:"workers,omitempty"`
}

// metric returns a number -benchcmp compares: a mode's wall time by
// mode name, else a count.
func (a *artifact) metric(key string) (float64, bool) {
	for _, m := range a.Modes {
		if m.Name == key {
			return m.WallMS, true
		}
	}
	v, ok := a.Counts[key]
	return v, ok
}

// study is one row of the study table: how to run it at a shape, and
// which of its numbers -benchcmp holds to benchRegressionPct. run
// returns the artifact even when a gate fails (with the gate's error),
// and nil only when the study could not produce numbers.
type study struct {
	name    string
	run     func(shape) (*artifact, error)
	compare []string
}

// studies is the study table, in -benchcmp order. The jobs study's
// cached wall is microseconds and too noisy for a percentage budget;
// its speedup gate covers it with margin.
var studies = []study{
	{"fleet", fleetStudy, []string{"serial", "parallel", "bytes_per_device"}},
	overhead(experiments.TelemetryStudy, "baseline", "enabled"),
	overhead(experiments.CheckStudy, "baseline", "enabled"),
	overhead(experiments.ObsvStudy, "baseline", "enabled"),
	overhead(experiments.TraceStudy, "baseline", "full"),
	{"corpus", corpusStudy, []string{"replay"}},
	{"jobs", jobsStudy, []string{"cold"}},
}

func studyNamed(name string) study {
	for _, st := range studies {
		if st.name == name {
			return st
		}
	}
	panic("benchsuite: no study " + name)
}

// overhead joins an overhead study to the table.
func overhead(s *experiments.OverheadStudy, compare ...string) study {
	return study{s.Name, func(sh shape) (*artifact, error) {
		r, err := s.Run(sh.Reps)
		if err != nil {
			return nil, err
		}
		fmt.Println(r.Render())
		a := &artifact{shape: shape{Reps: r.Reps}, Gates: r.Gates, Counts: r.Counts}
		for _, m := range r.Modes {
			a.Modes = append(a.Modes, mode{Name: m.Name, WallMS: m.FloorMS, OverheadPct: m.OverheadPct})
		}
		return a, r.Err
	}, compare}
}

// runStudy runs st at sh and records its artifact at path (nothing
// when path is empty) — also when a gate fails, so the failing numbers
// stay on record.
func runStudy(st study, sh shape, path string) error {
	a, gateErr := st.run(sh)
	if a == nil {
		return gateErr
	}
	a.Study, a.Host = st.name, thisHost()
	if path != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false) // keep gate ops readable: "<=", not "\u003c="
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			return err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return gateErr
}

// benchRegressionPct is the regression budget -benchcmp tolerates
// against the committed artifacts before failing.
const benchRegressionPct = 15.0

// benchCompare reruns every study at the shape recorded in its
// committed artifact, without rewriting it — this is the CI regression
// gate, not the regeneration path. It fails when a study's own gate
// fails, its deterministic output diverged, or a compared number grew
// by more than benchRegressionPct. Absolute wall times only mean
// something against an artifact from a like host, so a host mismatch
// is printed.
func benchCompare() error {
	here := thisHost()
	var failures []string
	for _, st := range studies {
		path := "BENCH_" + st.name + ".json"
		blob, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("benchcmp: %w (regenerate it with -%s first)", err, st.name)
		}
		var old artifact
		if err := json.Unmarshal(blob, &old); err != nil {
			return fmt.Errorf("benchcmp: %s: %w", path, err)
		}
		if old.Host != here {
			fmt.Printf("benchcmp: %s was measured on %+v, this host is %+v\n", path, old.Host, here)
		}
		fresh, err := st.run(old.shape)
		if fresh == nil {
			return err
		}
		if err != nil {
			failures = append(failures, err.Error())
		}
		if !sameJSON(old.Detail, fresh.Detail) {
			failures = append(failures, fmt.Sprintf(
				"%s: output diverged from %s — regenerate it with -%s if the change is intended", st.name, path, st.name))
		}
		for _, key := range st.compare {
			was, okOld := old.metric(key)
			now, okNew := fresh.metric(key)
			if !okOld || !okNew {
				return fmt.Errorf("benchcmp: %s/%s missing from %s or the fresh run", st.name, key, path)
			}
			if was <= 0 {
				continue
			}
			name := st.name + "/" + key
			pct := (now - was) / was * 100
			status := "ok"
			if pct > benchRegressionPct {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %.1f vs committed %.1f (%+.1f%% > +%.0f%%)",
					name, now, was, pct, benchRegressionPct))
			}
			fmt.Printf("benchcmp: %-24s %11.1f vs %11.1f committed  %+6.1f%%  %s\n", name, now, was, pct, status)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchcmp: %d failure(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Println("benchcmp: no regressions")
	return nil
}

// sameJSON reports whether two JSON texts are equal up to whitespace.
func sameJSON(a, b json.RawMessage) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// fleetSpeedupFloor is the parallel-efficiency floor: with the hot
// paths allocation-free, a fleet must use at least 37.5% of the CPUs
// it can run on — 3× for 8 workers on 8 or more CPUs, 0.75× for 2
// workers on 2 — so the gate binds on every host.
func fleetSpeedupFloor(workers, cpus int) float64 {
	return 0.375 * float64(min(workers, cpus))
}

// defaultFleetReps repeats each worker-count run and keeps the minimum
// wall time: a single short run is at the mercy of scheduler luck,
// which is exactly what the speedup gate and the benchcmp regression
// gate must not be.
const defaultFleetReps = 5

// fleetStudy runs the stealth-attack fleet serially and at the shape's
// workers, reps times each (keeping the minimum wall time
// and allocation delta), prints the aggregate, checks the renders
// match byte for byte across reps and legs, and gates the speedup at
// fleetSpeedupFloor. The fleet runs the streaming path — no per-device
// Results are retained — so the allocation delta is exactly the
// per-device churn the bytes/device comparison tracks.
func fleetStudy(sh shape) (*artifact, error) {
	if sh.Reps <= 0 {
		sh.Reps = defaultFleetReps
	}
	type leg struct {
		workers int // as requested; mode records what ran
		mode    mode
		render  string
		summary fleet.Summary
		// minAlloc is the smallest TotalAlloc delta across reps: GC
		// timing only ever adds bytes to a sample, so the minimum is the
		// honest per-run floor, same logic as the min wall time.
		minAlloc float64
	}
	serial := &leg{workers: 1, mode: mode{Name: "serial"}}
	parallel := &leg{workers: sh.Workers, mode: mode{Name: "parallel"}}
	if _, err := experiments.FleetBenchStudy(sh.Devices, sh.Workers, sh.Seed); err != nil { // untimed warm-up
		return nil, err
	}
	// The legs alternate rep by rep, so a burst of host noise lands on
	// one rep of each leg rather than on every rep of one, and the
	// minimum discards it.
	legs := [2]*leg{serial, parallel}
	for rep := 0; rep < sh.Reps; rep++ {
		for k := 0; k < 2; k++ {
			l := legs[(rep+k)%2]
			var before, after runtime.MemStats
			runtime.GC() // every rep starts from the same heap, as in the overhead studies
			runtime.ReadMemStats(&before)
			start := time.Now()
			fr, err := experiments.FleetBenchStudy(sh.Devices, l.workers, sh.Seed)
			if err != nil {
				return nil, err
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			alloc := float64(after.TotalAlloc - before.TotalAlloc)
			for _, f := range fr.Summary.Failures {
				return nil, fmt.Errorf("device %d: %s", f.Index, f.Err)
			}
			if fr.Summary.Failed > 0 {
				return nil, fmt.Errorf("%d devices failed", fr.Summary.Failed)
			}
			ms := float64(wall.Microseconds()) / 1000
			if l.render == "" {
				l.mode.WallMS, l.mode.Workers = ms, fr.Workers
				l.render, l.summary, l.minAlloc = fr.Render(), fr.Summary, alloc
				continue
			}
			if fr.Render() != l.render {
				return nil, fmt.Errorf("fleet render differs between reps at %d workers — determinism bug", l.workers)
			}
			l.mode.WallMS = math.Min(l.mode.WallMS, ms)
			l.minAlloc = math.Min(l.minAlloc, alloc)
		}
	}
	fmt.Println(parallel.render)

	cpus := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	speedup := serial.mode.WallMS / parallel.mode.WallMS
	deterministic := serial.render == parallel.render
	sum := parallel.summary
	a := &artifact{
		shape: sh,
		Modes: []mode{serial.mode, parallel.mode},
		Gates: []experiments.GateResult{
			experiments.AtLeast("speedup", speedup, fleetSpeedupFloor(parallel.mode.Workers, cpus)),
		},
		Counts: map[string]float64{
			"deterministic":            b2f(deterministic),
			"bytes_per_device":         parallel.minAlloc / float64(sh.Devices),
			"device_sim_hours_per_sec": sum.TotalSimH / (parallel.mode.WallMS / 1000),
			"total_drained_j":          sum.TotalDrainedJ,
			"total_sim_h":              sum.TotalSimH,
			"attacks":                  float64(sum.Attacks),
			"detection_rate":           sum.DetectionRate(),
			"failed":                   float64(sum.Failed),
		},
	}
	gate := a.Gates[0]
	fmt.Printf("fleet: %d devices, workers %d vs 1: %.1fms vs %.1fms (%.2fx, floor %.2fx on %d usable CPUs), deterministic=%v\n",
		sh.Devices, parallel.mode.Workers, parallel.mode.WallMS, serial.mode.WallMS,
		speedup, gate.Limit, cpus, deterministic)
	fmt.Printf("fleet: %.0f B/device allocated (streaming), %.1f device-sim-hours/sec\n",
		a.Counts["bytes_per_device"], a.Counts["device_sim_hours_per_sec"])
	if !deterministic {
		return a, fmt.Errorf("fleet aggregate differs between worker counts — determinism bug")
	}
	if !gate.Pass {
		return a, fmt.Errorf("fleet speedup gate failed: %.2fx < %.2fx with %d workers on %d usable CPUs",
			speedup, gate.Limit, parallel.mode.Workers, cpus)
	}
	return a, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// fleetMemBudgetBytes is the peak-heap growth ceiling for a streaming
// population fleet. The streaming accumulator's live set is O(workers +
// pending window + index blocks), not O(devices), so the budget is a
// constant independent of fleet size: a 100k-device run must fit the
// same heap a 10k-device run does. Retaining 100k per-device Results
// (ledger maps, violations, custom payloads) would blow this by an
// order of magnitude — which is exactly the regression this gate is
// for.
const fleetMemBudgetBytes = 256 << 20

// memSampleEvery is how many progress ticks separate ReadMemStats
// samples during the memory study; ReadMemStats briefly stops the
// world, so sampling every device would distort the run it measures.
const memSampleEvery = 4096

// fleetMemStudy runs an N-device population fleet (heterogeneous
// cohorts from internal/fleet/population) down the streaming path and
// checks the peak-heap budget. Unlike fleetStudy this is a pass/fail
// probe, not an artifact writer: the gated bytes/device number lives in
// BENCH_fleet.json via -fleet, while this study answers "does a fleet
// two orders of magnitude larger still fit in constant memory?"
func fleetMemStudy(devices, workers int, seed int64) error {
	pop := population.Default()
	spec, err := pop.FleetSpec(devices, workers, 0, seed)
	if err != nil {
		return err
	}
	var peak atomic.Uint64
	var ticks atomic.Int64
	spec.Progress = func(fleet.Progress) {
		if ticks.Add(1)%memSampleEvery != 0 {
			return
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peak.Load()
			if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
				return
			}
		}
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fr, err := fleet.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peak.Load() {
		peak.Store(after.HeapAlloc)
	}

	for _, f := range fr.Summary.Failures {
		return fmt.Errorf("fleet-mem: device %d: %s", f.Index, f.Err)
	}
	if fr.Summary.Failed > 0 {
		return fmt.Errorf("fleet-mem: %d devices failed", fr.Summary.Failed)
	}
	peakGrowth := int64(peak.Load()) - int64(before.HeapAlloc)
	if peakGrowth < 0 {
		peakGrowth = 0
	}
	bytesPerDevice := float64(after.TotalAlloc-before.TotalAlloc) / float64(devices)
	fmt.Printf("fleet-mem: %d devices (%d cohorts), workers %d: %.1fs wall, %.1f device-sim-hours/sec\n",
		devices, len(pop.Cohorts), fr.Workers, wall.Seconds(),
		fr.Summary.TotalSimH/wall.Seconds())
	fmt.Printf("fleet-mem: peak heap growth %.1f MiB (budget %.0f MiB), %.0f B/device allocated\n",
		float64(peakGrowth)/(1<<20), float64(fleetMemBudgetBytes)/(1<<20), bytesPerDevice)
	if peakGrowth > fleetMemBudgetBytes {
		return fmt.Errorf("fleet-mem: peak heap grew %.1f MiB > %.0f MiB budget — streaming path is retaining state",
			float64(peakGrowth)/(1<<20), float64(fleetMemBudgetBytes)/(1<<20))
	}
	fmt.Println("fleet-mem: memory budget pass")
	return nil
}

// energyParity reruns scene #1 with and without E-Android and reports
// the simulated battery drop of each (the paper's §VI-B check: "the
// decreased energy level is the same between Android and E-Android").
func energyParity() error {
	run := func(enabled bool) (float64, error) {
		w, err := scenario.NewWorld(device.Config{
			EAndroid: enabled,
			Policy:   accounting.BatteryStats,
		})
		if err != nil {
			return 0, err
		}
		if err := w.Scene1MessageFilm(); err != nil {
			return 0, err
		}
		return w.Dev.DrainedJ(), nil
	}
	with, err := run(true)
	if err != nil {
		return err
	}
	without, err := run(false)
	if err != nil {
		return err
	}
	fmt.Printf("Energy efficiency (paper §VI-B):\n")
	fmt.Printf("  scene #1 drain with    E-Android: %.3f J\n", with)
	fmt.Printf("  scene #1 drain without E-Android: %.3f J\n", without)
	if math.Abs(with-without) < 1e-9 {
		fmt.Println("  identical — E-Android draws nothing extra outside collateral events")
	} else {
		fmt.Printf("  DIFFER by %.3g J\n", with-without)
	}
	return nil
}
