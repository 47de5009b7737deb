// Command perfbench is the repository benchmark: one in-process program
// that runs a named workload at a workload seed, checks the simulated
// outputs against committed digests and prints every metric by name
// with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer ledger. See README.md.
package main

import (
	"cmp"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet/population"
	"repro/internal/trace"
)

// workload is one set of inputs the benchmark drives. op performs
// operation k from client c: operation k is the same input whichever
// client runs it.
type workload interface {
	setup() error
	close()
	clients() int
	minOps() int
	op(c, k int, tr *tracer) opResult
	digest() string
}

var workloads = []string{"jobs-cold", "fleet-population", "fleet-detector"}

// variants is how many distinct inputs each workload has: the workload
// seed is reduced modulo variants, so that every seed has a committed
// output digest.
const variants = 64

func variantOf(seed int64) int64 { return (seed%variants + variants) % variants }

func nproc() int { return runtime.NumCPU() }

// size holds the input sizes; tests shrink them.
type size struct {
	jobs       jobShape
	popDevices int
	detDevices int
	// memOps is, per workload, how many operations an untraced run
	// completes before it takes its heap figures.
	memOps map[string]int
}

var stdSize = size{jobs: stdJobShape, popDevices: popDevices, detDevices: detDevices, memOps: map[string]int{
	"jobs-cold": 64, "fleet-population": 4, "fleet-detector": 8,
}}

func newWorkload(name string, variant int64, sz size) (workload, error) {
	switch name {
	case "jobs-cold":
		return &jobsCold{variant: variant, shape: sz.jobs}, nil
	case "fleet-population":
		return &fleetBench{name: name, devices: sz.popDevices, seed: derive(variant, 0), pop: population.Default()}, nil
	case "fleet-detector":
		return &fleetBench{name: name, devices: sz.detDevices, seed: derive(variant, 0)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

// shapeOf describes a workload's inputs for the result record.
func shapeOf(name string, sz size) map[string]any {
	switch name {
	case "jobs-cold":
		return map[string]any{"clients": nproc(), "loop": "closed", "devices_per_job": sz.jobs.Devices,
			"horizon": sz.jobs.Horizon.String(), "digest_prefix": sz.jobs.Prefix}
	case "fleet-population":
		return map[string]any{"devices": sz.popDevices, "workers": nproc(), "horizon": "1h0m0s"}
	default:
		return map[string]any{"devices": sz.detDevices, "workers": nproc(), "horizon": detHorizon.String()}
	}
}

type metricDef struct {
	Name, Unit, Better string
	// Moves and On name the end-to-end metric a per-layer metric should
	// move and the workloads where it should move it.
	Moves, On string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "sim_hours_per_s", Unit: "h/s", Better: "higher"},
	{Name: "alloc_bytes_per_device", Unit: "bytes", Better: "lower"},
	{Name: "peak_heap_mib", Unit: "MiB", Better: "lower"},
	{Name: "retained_heap_mib", Unit: "MiB", Better: "lower"},
}

const (
	jobsLat  = "latency_p50_ms, latency_p90_ms, jobs_per_s"
	simRate  = "sim_hours_per_s"
	allSim   = "jobs-cold, fleet-population, fleet-detector"
	allFleet = "fleet-population, fleet-detector"
)

var perLayer = []metricDef{
	{"jobs.submit_ms", "ms", "lower", jobsLat, "jobs-cold"},
	{"jobs.cache_hit_ms", "ms", "lower", "(the cache's read side, timed by a probe: no kept workload serves from the cache)", "jobs-cold"},
	{"jobs.artifact_fetch_ms", "ms", "lower", jobsLat, "jobs-cold"},
	{"jobs.queue_wait_ms", "ms", "lower", "latency_p90_ms, jobs_per_s", "jobs-cold"},
	{"jobs.run_ms", "ms", "lower", "latency_p90_ms, jobs_per_s", "jobs-cold"},
	{"jobs.artifact_write_ms", "ms", "lower", "latency_p90_ms, jobs_per_s", "jobs-cold"},
	{"jobs.artifact_bytes", "bytes", "lower", "retained_heap_mib", "jobs-cold"},
	{"jobs.retained_jobs", "count", "lower", "retained_heap_mib", "jobs-cold"},
	{"jobs.cache.hit_ratio", "ratio", "higher", "retained_heap_mib", "jobs-cold"},
	{"jobs.cache.evictions", "count", "lower", "retained_heap_mib", "jobs-cold"},
	{"fleet.worker_busy_ratio", "ratio", "higher", simRate, "fleet-population"},
	{"fleet.pool_idle_ms", "ms", "lower", simRate, "fleet-population"},
	{"device.new_us", "us", "lower", "sim_hours_per_s, alloc_bytes_per_device", "fleet-population"},
	{"device.new_bytes", "bytes", "lower", "sim_hours_per_s, alloc_bytes_per_device", "fleet-population"},
	{"scenario.populate_us", "us", "lower", "sim_hours_per_s, alloc_bytes_per_device", "fleet-population"},
	{"corpus.generate_us", "us", "lower", "sim_hours_per_s, alloc_bytes_per_device", "fleet-population"},
	{"corpus.apply_ms", "ms", "lower", simRate, "fleet-detector, jobs-cold"},
	{"sim.events", "count", "lower", simRate, "fleet-detector, jobs-cold"},
	{"sim.host_ns_per_event", "ns", "lower", simRate, "fleet-detector, jobs-cold"},
	{"hw.meter_intervals", "count", "lower", simRate, "fleet-detector, jobs-cold"},
	{"core.framework_ms", "ms", "lower", simRate, allSim},
	{"core.accounting_ms", "ms", "lower", simRate, allSim},
	{"check.checker_ms", "ms", "lower", simRate, "fleet-population"},
	{"telemetry.recorder_ms", "ms", "lower", simRate, "jobs-cold"},
	{"telemetry.events_dropped", "count", "lower", simRate, "jobs-cold"},
	{"trace.device_tracer_ms", "ms", "lower", simRate, "jobs-cold"},
	{"trace.spans", "count", "lower", simRate, "jobs-cold"},
	{"obsv.watchdog_ms", "ms", "lower", "sim_hours_per_s, latency_p50_ms", "jobs-cold"},
	{"obsv.flame_accrue_ms", "ms", "lower", "sim_hours_per_s, latency_p50_ms", "jobs-cold"},
	{"obsv.flame_fold_ms", "ms", "lower", "sim_hours_per_s, latency_p50_ms", "jobs-cold"},
	{"powersig.detector_ms", "ms", "lower", "sim_hours_per_s, alloc_bytes_per_device, peak_heap_mib", "fleet-detector"},
	{"powersig.bytes_per_device", "bytes", "lower", "sim_hours_per_s, alloc_bytes_per_device, peak_heap_mib", "fleet-detector"},
	{"runtime.gc_cycles", "count", "lower", simRate, allFleet},
	{"runtime.gc_pause_ms", "ms", "lower", simRate, allFleet},
	{"runtime.gc_cpu_fraction", "ratio", "lower", simRate, allFleet},
	{"bench.trace_overhead_pct", "%", "lower", "(tracing cost: traced vs untraced median operation latency)", "all"},
	{"bench.unattributed_pct", "%", "lower", "(ledger gap: end-to-end time no layer accounts for)", "all"},
	{"bench.failed_ratio", "ratio", "lower", "(failed over attempted operations)", "all"},
	{"host.nproc", "count", "higher", "(host record)", "all"},
	{"host.gomaxprocs", "count", "higher", "(host record)", "all"},
}

// Ablation pass sizes.
const (
	ablationSamples = 16
	ablationReps    = 7
)

// cacheProbes is how many cached resubmits the cache probe times.
const cacheProbes = 16

// traceSegments is how many equal segments a traced run splits its
// seconds into, untraced and traced in turn.
const traceSegments = 4

// processes is how many measurement processes an untraced run spreads
// its seconds over, one after another; it reports the median of their
// figures, so that one slow stretch of a shared host moves one
// process's figures rather than the run's. Each process also sets the
// workload up once, so setup_s is a median over fresh set-ups.
const processes = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     size
	// want is the expected output digest; traceOut, when set, is where a
	// traced run writes its spans and ledger.
	want     string
	traceOut string
}

// record starts the record printed before a result: the workload and
// its inputs, and the host.
func record(o options) map[string]any {
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "variant": variantOf(o.seed),
		"shape": shapeOf(o.workload, o.size), "traced": o.traced,
		"nproc": nproc(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
}

// run executes one benchmark run in this process and returns its result
// plus its record (host, workload shape, sample counts, digests).
func run(o options) (result, map[string]any, error) {
	info := record(o)
	w, err := newWorkload(o.workload, variantOf(o.seed), o.size)
	if err != nil {
		return result{}, info, err
	}
	t0 := time.Now()
	err = w.setup()
	setup := time.Since(t0).Seconds()
	defer w.close()
	if err != nil {
		return result{}, info, err
	}

	res := result{Metrics: map[string]metricValue{}}
	put := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.Name == name {
				res.Metrics[name] = metricValue{v, d.Unit}
				return
			}
		}
		panic("undeclared metric " + name)
	}
	var bad string
	if !o.traced {
		// First a memory phase of a fixed number of operations, which
		// gives the heap and allocation figures, then the timed phase.
		memOps := o.size.memOps[o.workload]
		op := func(c, k int) opResult { return w.op(c, k, nil) }
		// The memory phase keeps no latency samples of its own, so that
		// the benchmark holds next to nothing at the heap checkpoint.
		memOp := func(c, k int) opResult {
			r := op(c, k)
			r.samples = nil
			return r
		}
		mem := measure(0, w.clients(), max(w.minOps(), memOps), memOps, memOp)
		tp, cals := timed(max(o.seconds-mem.wall.Seconds(), o.seconds/2), w.clients(), mem.ops, op)
		// Times are taken to the reference host speed (calibrate.go).
		f := hostScale(cals)
		scaled := make([]float64, len(tp.samples))
		for i, l := range tp.samples {
			scaled[i] = l * f
		}
		wall := tp.wall.Seconds() * f
		e := func(name string, v float64) { put(endToEnd, name, v) }
		e("setup_s", setup*f)
		e("jobs_per_s", float64(len(tp.lat))/wall)
		e("latency_p50_ms", percentile(scaled, 0.5))
		e("latency_p90_ms", percentile(scaled, 0.9))
		e("sim_hours_per_s", tp.simHours/wall)
		e("alloc_bytes_per_device", float64(mem.allocBytes)/float64(max(mem.devices, 1)))
		e("peak_heap_mib", mem.peakHeap/mib)
		e("retained_heap_mib", float64(mem.retained)/mib)
		res.Attempted, res.Failed = mem.attempted+tp.attempted, mem.failed+tp.failed
		bad = cmp.Or(mem.bad, tp.bad)
		info["latencies_ms"] = scaled
		info["heap_checkpoint_ops"] = memOps
		info["calibration_ms"] = cals
		info["host_scale"] = f
		info["unscaled"] = map[string]float64{
			"setup_s":         setup,
			"jobs_per_s":      float64(len(tp.lat)) / tp.wall.Seconds(),
			"latency_p50_ms":  percentile(tp.samples, 0.5),
			"latency_p90_ms":  percentile(tp.samples, 0.9),
			"sim_hours_per_s": tp.simHours / tp.wall.Seconds(),
		}
		info["metrics"] = res.Metrics
	} else {
		l := func(name string, v float64) { put(perLayer, name, v) }
		tr := newTracer()
		cold, _ := w.(*jobsCold)
		// Untraced and traced segments alternate, so drift over the run
		// hits both alike and their latencies give the overhead. An
		// untraced segment runs as an untraced run does: no tracer and no
		// stage publisher. Operation indices continue across segments, so
		// jobs-cold never repeats a spec.
		var ph phase
		g0 := readGC()
		for s := 0; s < traceSegments; s++ {
			traced := s%2 == 1
			var segTr *tracer
			if traced {
				segTr = tr
				if cold != nil {
					cold.svc.traceStages()
				}
			}
			base := ph.ops
			seg := measure(o.seconds/traceSegments, w.clients(), w.minOps(), 0, func(c, k int) opResult {
				r := w.op(c, base+k, segTr)
				r.traced = traced
				return r
			})
			if cold != nil {
				cold.svc.m.SetTracePublisher(nil)
			}
			ph.add(seg, traced)
		}
		g1 := readGC()
		for _, d := range perLayer {
			l(d.Name, 0) // layers a workload does not run report zero
		}
		extra, err := layerMetrics(w, tr, &ph, l)
		if err != nil {
			return result{}, info, err
		}
		rows, rootMS, unattributed := ledger(tr.spans, extra)
		l("bench.unattributed_pct", unattributed)
		if len(ph.lat) > 0 && len(ph.latTraced) > 0 {
			l("bench.trace_overhead_pct", 100*(median(ph.latTraced)/median(ph.lat)-1))
		}
		l("bench.failed_ratio", float64(ph.failed)/float64(max(ph.attempted, 1)))
		l("runtime.gc_cycles", float64(g1.cycles-g0.cycles))
		l("runtime.gc_pause_ms", float64(g1.pauseNs-g0.pauseNs)/1e6)
		l("runtime.gc_cpu_fraction", g1.cpuFrac)
		l("host.nproc", float64(nproc()))
		l("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
		res.Attempted, res.Failed, bad = ph.attempted, ph.failed, ph.bad
		info["latency_samples"] = len(ph.lat) + len(ph.latTraced)
		moves := map[string]string{}
		for _, d := range perLayer {
			moves[d.Name] = d.Moves + " on " + d.On
		}
		info["layer_moves"] = moves
		info["ledger_root_ms"] = rootMS
		if o.traceOut != "" {
			err := writeTrace(o.traceOut, map[string]any{"info": info, "ledger": rows, "spans": tr.spans})
			if err != nil {
				return result{}, info, fmt.Errorf("write trace: %w", err)
			}
			info["trace_file"] = o.traceOut
		}
	}
	got := w.digest()
	info["digest"], info["want_digest"] = got, o.want
	res.Correct = bad == "" && got == o.want && res.Failed == 0
	if bad != "" {
		info["mismatch"] = bad
	}
	return res, info, nil
}

// spanStats returns the count, median and sum (ms) of the named spans.
func spanStats(spans []span, name string) (int, float64, float64) {
	var xs []float64
	var sum float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.Dur)/1e6)
			sum += float64(s.Dur) / 1e6
		}
	}
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return len(xs), median(xs), sum
}

// layerMetrics fills the workload's per-layer metrics from the traced
// operations' spans, a cache probe on jobs-cold and an ablation pass, and
// returns the ablation costs to charge in the ledger. The probe's
// requests count in ph's attempted and failed operations.
func layerMetrics(w workload, tr *tracer, ph *phase, l func(string, float64)) ([]modeled, error) {
	if cold, ok := w.(*jobsCold); ok {
		svc := cold.svc
		cs := svc.m.CacheStats()
		if cs.Entries > 0 {
			l("jobs.artifact_bytes", float64(cs.Bytes)/float64(cs.Entries))
		}
		if cs.Hits+cs.Misses > 0 {
			l("jobs.cache.hit_ratio", float64(cs.Hits)/float64(cs.Hits+cs.Misses))
		}
		l("jobs.cache.evictions", float64(cs.Evictions))
		l("jobs.retained_jobs", float64(len(svc.m.List())))
		svc.mu.Lock()
		var spans, n float64
		for _, s := range svc.stages {
			spans += float64(s.Spans)
			n++
		}
		svc.mu.Unlock()
		if n > 0 {
			l("trace.spans", spans/n)
		}
		a, f := cold.cacheProbe(tr, ph.ops, cacheProbes)
		ph.attempted += a
		ph.failed += f
		for _, name := range []string{"submit", "cache_hit", "artifact_fetch", "queue_wait", "run", "artifact_write"} {
			_, med, _ := spanStats(tr.spans, "jobs."+name)
			l("jobs."+name+"_ms", med)
		}
	}
	var (
		sm     sampler
		chain  []step
		parent string
		scale  float64 // ablation ms per device → ledger ms
	)
	switch w := w.(type) {
	case *jobsCold:
		sm, chain, parent = jobSampler{w}, jobSteps, "corpus.apply"
		// Jobs run concurrently and share the CPUs, so a per-device cost
		// shows up in a job's running wall divided by the CPUs the job
		// had: GOMAXPROCS over the mean number of jobs running at once.
		var running float64
		w.svc.mu.Lock()
		for _, sum := range w.svc.stages {
			for _, st := range sum.Stages {
				if st.Name == "running" {
					running += st.WallMS
				}
			}
		}
		w.svc.mu.Unlock()
		cpus := float64(runtime.GOMAXPROCS(0))
		if concurrent := running / ms(ph.wallTraced); concurrent > 1 {
			cpus /= concurrent
		}
		scale = float64(ph.devicesTraced) / min(cpus, float64(w.shape.Devices))
	case *fleetBench:
		runs, _, root := spanStats(tr.spans, "fleet.run")
		_, _, idle := spanStats(tr.spans, "fleet.pool_idle")
		if root > 0 {
			l("fleet.worker_busy_ratio", 1-idle/root)
			l("fleet.pool_idle_ms", idle/float64(runs))
		}
		scale = float64(ph.devicesTraced)
		if w.name == "fleet-detector" {
			sm, chain, parent = detSampler{w}, detectorSteps, "sim.horizon"
		} else {
			sm, chain, parent = popSampler{w}, coreSteps, "corpus.apply"
		}
	}
	a, err := ablate(sm, chain, ablationSamples, ablationReps)
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	for _, st := range chain {
		l(st.metric, a.stepMS[st.metric])
	}
	l("powersig.bytes_per_device", a.stepBytes["powersig.detector_ms"])
	l("device.new_us", 1e3*a.lapMS["device.new"])
	l("device.new_bytes", a.newBytes)
	l("scenario.populate_us", 1e3*a.lapMS["scenario.populate"])
	l("corpus.generate_us", 1e3*a.lapMS["corpus.generate"])
	apply := a.lapMS["corpus.apply"] + a.lapMS["scenario.stealth"] + a.lapMS["sim.horizon"]
	l("corpus.apply_ms", apply)
	l("obsv.flame_fold_ms", a.lapMS["obsv.flame_fold"])
	l("sim.events", a.probe.events)
	if a.probe.events > 0 {
		l("sim.host_ns_per_event", apply*1e6/a.probe.events)
	}
	l("hw.meter_intervals", a.probe.intervals)
	l("telemetry.events_dropped", a.probe.dropped)

	var extra []modeled
	if _, ok := w.(*jobsCold); ok {
		// The jobs service runs devices out of sight; charge their
		// directly timed layer calls to the job's running stage.
		for _, name := range []string{"device.new", "scenario.populate", "corpus.generate", "corpus.apply", "obsv.flame_fold"} {
			extra = append(extra, modeled{name, "jobs.run", a.lapMS[name] * scale})
		}
	}
	for _, st := range chain {
		cost := a.stepMS[st.metric] * scale
		if st.metric == "trace.device_tracer_ms" {
			cost /= trace.DefaultSampleRate // only sampled devices carry a tracer
		}
		extra = append(extra, modeled{strings.TrimSuffix(st.metric, "_ms"), parent, cost})
	}
	return extra, nil
}

// runProcesses splits an untraced run over n measurement processes,
// each started by spawn with its share of the seconds, and reports the
// median of each metric across them, except the latency percentiles,
// which are taken over the latencies of all the processes together, so
// that the p90 rests on every sample of the run. Operations add up; the
// run is correct only if every process was.
func runProcesses(o options, n int, spawn func(options) (result, map[string]any, error)) (result, map[string]any, error) {
	per := o
	per.seconds = o.seconds / float64(n)
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var infos []map[string]any
	values := map[string][]float64{}
	var lat []float64
	for i := 0; i < n; i++ {
		r, info, err := spawn(per)
		if err != nil {
			return result{}, nil, fmt.Errorf("process %d: %w", i, err)
		}
		xs := floats(info["latencies_ms"])
		lat = append(lat, xs...)
		delete(info, "latencies_ms")
		info["latency_samples"] = len(xs)
		infos = append(infos, info)
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	for _, d := range endToEnd {
		if len(values[d.Name]) != n {
			return result{}, nil, fmt.Errorf("a process did not report %s", d.Name)
		}
		res.Metrics[d.Name] = metricValue{median(values[d.Name]), d.Unit}
	}
	if len(lat) == 0 {
		return result{}, nil, fmt.Errorf("no process reported its latencies")
	}
	res.Metrics["latency_p50_ms"] = metricValue{percentile(lat, 0.5), "ms"}
	res.Metrics["latency_p90_ms"] = metricValue{percentile(lat, 0.9), "ms"}
	info := record(o)
	info["processes"] = infos
	info["latency_samples"] = len(lat)
	info["latency_p90_beyond"] = beyond(lat, 0.9)
	return res, info, nil
}

// floats reads a list of numbers from a run record, as run puts it there
// or as it comes back from JSON.
func floats(v any) []float64 {
	switch xs := v.(type) {
	case []float64:
		return xs
	case []any:
		out := make([]float64, 0, len(xs))
		for _, x := range xs {
			if f, ok := x.(float64); ok {
				out = append(out, f)
			}
		}
		return out
	}
	return nil
}

// spawnProcess runs one measurement process: this program again, with
// -process, waiting for it to end. The process prints the same two
// lines a run does; its standard error passes through.
func spawnProcess(o options) (result, map[string]any, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	cmd := exec.Command(exe, "-process", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var (
		res  result
		info struct{ Info map[string]any }
	)
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil ||
		json.Unmarshal([]byte(lines[len(lines)-2]), &info) != nil {
		// No result: the process failed before measuring anything.
		return result{}, nil, fmt.Errorf("measurement process printed no result: %v", runErr)
	}
	return res, info.Info, nil // a failed output check arrives as Correct == false
}

//go:embed digests.json
var digestsJSON []byte

// committedDigest returns the expected output digest of a workload at a
// variant of the standard size.
func committedDigest(name string, variant int64) (string, error) {
	var table map[string][]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	ds := table[name]
	if int(variant) >= len(ds) {
		return "", fmt.Errorf("digests.json has no digest for %s variant %d", name, variant)
	}
	return ds[variant], nil
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	process := fs.Bool("process", false, "measure in this process only (an untraced run starts several)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if !slices.Contains(workloads, *name) || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %s, -seconds > 0 and -trace 0 or 1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	want, err := committedDigest(*name, variantOf(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := options{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, size: stdSize, want: want}
	if o.traced {
		o.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	}
	var (
		res  result
		info map[string]any
	)
	if o.traced || *process {
		res, info, err = run(o)
	} else {
		res, info, err = runProcesses(o, processes, spawnProcess)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		os.Exit(1)
	}
}
