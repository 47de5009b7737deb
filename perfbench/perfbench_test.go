package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobs"
)

var update = flag.Bool("update", false, "rewrite digests.json from the reference path")

// tiny keeps the smoke tests to a fraction of a second per workload.
var tiny = size{
	jobs:       jobShape{Devices: 2, Horizon: time.Hour, Prefix: 2},
	popDevices: 16,
	detDevices: 16,
	memOps:     map[string]int{"jobs-cold": 3, "fleet-population": 2, "fleet-detector": 2},
}

// reference computes a workload's expected output digest without the
// benchmark's measured path: jobs are submitted to a Manager directly
// (no HTTP) with one fleet worker, and fleets run on one worker.
func reference(t *testing.T, name string, variant int64, sz size) string {
	t.Helper()
	switch name {
	case "jobs-cold":
		m := jobs.NewManager(jobs.Options{Limits: jobs.Limits{Workers: 1}})
		defer m.Close()
		n := sz.jobs.Prefix
		bodies := make([][]byte, n)
		js := make([]*jobs.Job, n)
		for k := range js {
			j, err := m.Submit(jobSpec(variant, k, sz.jobs))
			if err != nil {
				t.Fatal(err)
			}
			js[k] = j
			if k%jobs.DefaultQueueDepth == jobs.DefaultQueueDepth-1 || k == n-1 {
				for _, j := range js[k-k%jobs.DefaultQueueDepth : k+1] {
					<-j.Done()
				}
			}
		}
		for k, j := range js {
			arts, ok := j.Artifacts()
			if !ok {
				t.Fatalf("job %d: %+v", k, j.Status())
			}
			bodies[k] = arts.Files["summary.json"]
		}
		return digestBodies(bodies)
	default:
		w := mustFleet(t, name, variant, sz)
		spec, err := w.spec(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		spec.Workers = 1
		fr, err := fleet.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(fr.Summary.Render(fr.Seed)))
		return hex.EncodeToString(sum[:])
	}
}

func mustFleet(t *testing.T, name string, variant int64, sz size) *fleetBench {
	t.Helper()
	w, err := newWorkload(name, variant, sz)
	if err != nil {
		t.Fatal(err)
	}
	return w.(*fleetBench)
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// Reference values: numpy.percentile(xs, q) (linear interpolation),
	// equal to Python's statistics.quantiles(method="inclusive").
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.9, 9.1}, {0.99, 9.91}, {1, 10},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	// Samples beyond p90 of 1..10 (9.1): only 10. Of 1..200: 20.
	if got := beyond(xs, 0.9); got != 1 {
		t.Errorf("beyond(p90) = %d, want 1", got)
	}
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := beyond(big, 0.9); got != 20 {
		t.Errorf("beyond(p90) of 200 samples = %d, want 20", got)
	}
}

// TestHeapCheckpoint checks that the heap figures are taken after a
// fixed number of operations, whatever number the deadline allows: each
// operation keeps 1 MiB alive, and the live heap must count memOps of
// them, no more.
func TestHeapCheckpoint(t *testing.T) {
	const memOps = 8
	var (
		mu   sync.Mutex
		kept [][]byte
	)
	base := liveHeap()
	ph := measure(0.4, 2, 1, memOps, func(_, k int) opResult {
		time.Sleep(10 * time.Millisecond)
		b := make([]byte, mib)
		mu.Lock()
		kept = append(kept, b)
		mu.Unlock()
		return opResult{attempted: 1, lat: 10 * time.Millisecond}
	})
	if ph.ops < 4*memOps {
		t.Fatalf("only %d operations in 0.4 s", ph.ops)
	}
	if got := float64(ph.retained-base) / mib; got < memOps || got > memOps+0.5 {
		t.Errorf("retained %.2f MiB over the baseline after %d operations, want %d MiB", got, ph.ops, memOps)
	}
	if got := (ph.peakHeap - float64(base)) / mib; got < memOps/2 || got > memOps+4 {
		t.Errorf("peak heap %.2f MiB over the baseline, want at most about %d MiB", got, memOps)
	}
	runtime.KeepAlive(kept)
}

func TestSpecsDeterministic(t *testing.T) {
	for _, v := range []int64{0, 7} {
		seen := map[string]bool{}
		for k := 0; k < 64; k++ {
			a, b := jobSpec(v, k, stdJobShape), jobSpec(v, k, stdJobShape)
			if a != b {
				t.Fatalf("variant %d spec %d differs between calls: %+v vs %+v", v, k, a, b)
			}
			if a.Seed < 0 {
				t.Fatalf("negative seed %d", a.Seed)
			}
			norm, err := a.Normalize(jobs.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if seen[norm.Key()] {
				t.Fatalf("variant %d spec %d repeats a key: it would be a cache hit", v, k)
			}
			seen[norm.Key()] = true
			if k < 16 {
				seen["cell "+a.Cell] = true
			}
		}
		if n := len(seen) - 64; n != 16 {
			t.Errorf("variant %d: first 16 specs cover %d cells, want all 16", v, n)
		}
	}
	if jobSpec(1, 0, stdJobShape).Seed == jobSpec(2, 0, stdJobShape).Seed {
		t.Error("different variants share a spec seed")
	}
	for seed, want := range map[int64]int64{0: 0, 1: 1, 64: 0, 65: 1, -1: 63} {
		if got := variantOf(seed); got != want {
			t.Errorf("variantOf(%d) = %d, want %d", seed, got, want)
		}
	}
}

func TestLedger(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Dur: 100e6},
		{ID: 1, Parent: 0, Name: "jobs.submit", Dur: 10e6},
		{ID: 2, Parent: 0, Name: "jobs.events", Dur: 80e6},
		{ID: 3, Parent: 2, Name: "jobs.run", Dur: 70e6},
		// A client-side view outside the ledger.
		{ID: 4, Parent: -1, Name: "jobs.submit", Dur: 30e6},
	}
	rows, root, pct := ledger(spans, []modeled{{"corpus.apply", "jobs.run", 50}})
	self := map[string]float64{}
	var sum float64
	for _, r := range rows {
		self[r.Name] = r.SelfMS
		sum += r.SelfMS
	}
	want := map[string]float64{"request": 10, "jobs.submit": 10, "jobs.events": 10, "jobs.run": 20, "corpus.apply": 50}
	if len(rows) != len(want) {
		t.Errorf("%d ledger rows, want %d: the detached view span must stay out", len(rows), len(want))
	}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
	if root != 100 || math.Abs(sum-root) > 1e-9 || math.Abs(pct-10) > 1e-9 {
		t.Errorf("root %v, self sum %v, unattributed %v%%; want 100, 100, 10%%", root, sum, pct)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks each emits every named metric with its unit and passes
// its output check.
func TestSmoke(t *testing.T) {
	for _, name := range workloads {
		want := reference(t, name, 3, tiny)
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				res, info, err := run(options{workload: name, seed: 3, seconds: 0.3, traced: traced, size: tiny, want: want})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d info=%v", res.Correct, res.Attempted, res.Failed, info)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v, ok=%v; want a finite value in %s", d.Name, m, ok, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if !traced {
					// Times are the measured ones taken to the reference host
					// speed by the run's one factor.
					f, raw := info["host_scale"].(float64), info["unscaled"].(map[string]float64)
					for name, want := range map[string]float64{
						"setup_s": raw["setup_s"] * f, "latency_p50_ms": raw["latency_p50_ms"] * f,
						"jobs_per_s": raw["jobs_per_s"] / f, "sim_hours_per_s": raw["sim_hours_per_s"] / f,
					} {
						if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9*want {
							t.Errorf("%s = %v, want %v: measured %v at host scale %v", name, got, want, raw[name], f)
						}
					}
				}
				for _, key := range []string{"nproc", "gomaxprocs", "go", "seed", "shape"} {
					if _, ok := info[key]; !ok {
						t.Errorf("result record lacks %q", key)
					}
				}
			})
		}
	}
}

// TestProcesses checks that a run split over measurement processes
// reports each end-to-end metric as the median across them, the latency
// percentiles over all their latencies, adds up their operations, and
// fails if any process failed its output check.
func TestProcesses(t *testing.T) {
	o := options{workload: "fleet-detector", seed: 4, seconds: 0.6, size: tiny, want: reference(t, "fleet-detector", 4, tiny)}
	var (
		got []result
		lat []float64
	)
	spawn := func(o options) (result, map[string]any, error) {
		r, info, err := run(o)
		got = append(got, r)
		lat = append(lat, floats(info["latencies_ms"])...)
		return r, info, err
	}
	res, info, err := runProcesses(o, 3, spawn)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(got) != 3 {
		t.Fatalf("correct=%v after %d processes", res.Correct, len(got))
	}
	attempted := 0
	for _, r := range got {
		attempted += r.Attempted
	}
	if res.Attempted != attempted {
		t.Errorf("attempted %d, processes attempted %d", res.Attempted, attempted)
	}
	for _, d := range endToEnd {
		var xs []float64
		for _, r := range got {
			xs = append(xs, r.Metrics[d.Name].Value)
		}
		want := median(xs)
		switch d.Name {
		case "latency_p50_ms":
			want = percentile(lat, 0.5)
		case "latency_p90_ms":
			want = percentile(lat, 0.9)
		}
		if m := res.Metrics[d.Name]; m.Value != want || m.Unit != d.Unit {
			t.Errorf("%s = %+v, want %v in %s", d.Name, m, want, d.Unit)
		}
	}
	if info["latency_samples"] != len(lat) {
		t.Errorf("run record counts %v latencies, the processes reported %d", info["latency_samples"], len(lat))
	}
	if ps, ok := info["processes"].([]map[string]any); !ok || len(ps) != 3 || info["nproc"] == nil {
		t.Errorf("run record lacks the host or the three process records: %v", info)
	}

	n := 0
	res, _, err = runProcesses(o, 3, func(o options) (result, map[string]any, error) {
		r, info, err := run(o)
		if n++; n == 2 {
			r.Correct = false
		}
		return r, info, err
	})
	if err != nil || res.Correct {
		t.Errorf("one incorrect process: err=%v correct=%v, want a run that failed its check", err, res.Correct)
	}
}

func TestPerturbedDigestFails(t *testing.T) {
	for _, name := range []string{"jobs-cold", "fleet-detector"} {
		want := []byte(reference(t, name, 5, tiny))
		want[0] ^= 1
		res, _, err := run(options{workload: name, seed: 5, seconds: 0.2, size: tiny, want: string(want)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			t.Errorf("%s: run passed its output check against a perturbed digest", name)
		}
	}
	// A measured fleet run whose summary differs from set-up's fails too.
	w := mustFleet(t, "fleet-population", 5, tiny)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.render = "perturbed"
	if r := w.op(0, 0, nil); r.bad == "" {
		t.Error("fleet op accepted a summary that differs from set-up's")
	}
}

// TestFleetDigestWorkers checks the fleet digests are the same on one
// worker and on nproc workers, and that the fleets whose hooks the
// benchmark wraps to time devices, traced or not, render the same
// summary as the bare ones.
func TestFleetDigestWorkers(t *testing.T) {
	for _, name := range []string{"fleet-population", "fleet-detector"} {
		want := reference(t, name, 9, tiny)
		w := mustFleet(t, name, 9, tiny)
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if w.digest() != want {
			t.Errorf("%s: %d workers digest %s, 1 worker %s", name, nproc(), w.digest(), want)
		}
		_, traced, err := w.run(newDevTimes(w.devices), nil)
		if err != nil {
			t.Fatal(err)
		}
		if traced != want {
			t.Errorf("%s: traced digest %s, bare %s", name, traced, want)
		}
		r := w.op(0, 0, nil)
		if r.bad != "" || len(r.samples) != w.devices {
			t.Errorf("%s: untraced op: %q, %d device latencies for %d devices", name, r.bad, len(r.samples), w.devices)
		}
		for i, l := range r.samples {
			if l <= 0 || l > ms(r.lat) {
				t.Errorf("%s: device %d latency %v ms outside its fleet run's %v ms", name, i, l, ms(r.lat))
				break
			}
		}
	}
}

// TestCommittedDigests recomputes the committed digests of two
// variants from the reference path; -update rewrites the whole table.
func TestCommittedDigests(t *testing.T) {
	if *update {
		table := map[string][]string{}
		for v := int64(0); v < variants; v++ {
			for _, name := range workloads {
				table[name] = append(table[name], reference(t, name, v, stdSize))
			}
		}
		b, err := json.MarshalIndent(table, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		t.Skip("recomputes full-size workloads")
	}
	for _, v := range []int64{0, variants - 1} {
		for _, name := range workloads {
			want, err := committedDigest(name, v)
			if err != nil {
				t.Fatal(err)
			}
			if got := reference(t, name, v, stdSize); got != want {
				t.Errorf("%s variant %d: reference digest %s, committed %s", name, v, got, want)
			}
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json declares exactly the metrics
// and workloads this program emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && w.Name != workloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit || got[i].Better != d.Better {
				t.Errorf("%s %d = %+v, want %s %s %s", kind, i, got[i], d.Name, d.Unit, d.Better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
