// Package trace is the causal span subsystem: every unit of service
// work — an HTTP request, a job, a fleet shard, one device's run, an
// engine phase inside it — carries a parent link, so the cost of a
// request rolls up along one tree, the way eprof's bundles roll energy
// up along call paths.
//
// The subsystem is built around the same determinism split the rest of
// the repo observes. Span IDs are derived from splitmix64 seed chains
// rooted in the job's content address, never from wall time or
// scheduling order, and the exported span tree is assembled in device-
// index order with virtual-ns timestamps only — so the Chrome trace a
// job artifact carries is byte-identical for every worker count, and
// cacheable under the jobs plane's content addressing.
// The Chrome trace-event encoding is obsv.WriteChromeSpans, which
// shares one writer with the CLIs' event traces. Wall-clock timing
// lives on the other side of the split: lifecycle stages (queued,
// running, artifact-write, cache-hit) are measured in wall time and
// surfaced on the live /trace feed, which — like fleet progress — is a
// live view, not a determinism surface.
//
// Sampling is head-based and pure: whether device i is traced is a
// function of (root ID, i) alone, decided before the device runs.
// Control-plane spans (request, job, shard) are always on; per-device
// span collection defaults to 1 in DefaultSampleRate devices.
package trace

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

// SpanID is a 64-bit span identifier, derived — never random — so the
// same operation always yields the same tree. Rendered as 16 hex
// digits in JSON: a uint64 does not survive a float64 JSON number.
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the ID as a quoted hex string.
func (id SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// Span kinds, outermost first.
const (
	KindRequest = "request"
	KindJob     = "job"
	KindShard   = "shard"
	KindDevice  = "device"
	KindPhase   = "phase"
)

// Engine-phase span names.
const (
	// PhaseMeterFlush is one integrated meter interval (a flush).
	PhaseMeterFlush = "meter.flush"
	// PhaseWatchdogWindow is one closed watchdog window.
	PhaseWatchdogWindow = "watchdog.window"
	// PhaseKernelBatch is one same-instant wheel dispatch batch,
	// folded from the telemetry kernel trace log after the run.
	PhaseKernelBatch = "wheel.batch"
)

// Span is one unit of causal work. Start/End are virtual nanoseconds
// (the device's sim clock; control-plane spans roll their windows up
// from their children).
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	// Dev is the owning device index; -1 for control-plane spans.
	Dev   int   `json:"dev"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// N is an optional magnitude: dispatch batch size, window finding
	// count, flush energy.
	N float64 `json:"n,omitempty"`
}

// DefaultSampleRate: 1 in 64 devices carry full engine-phase tracing.
const DefaultSampleRate = 64

// DefaultMaxSpansPerDevice bounds one device's span buffer. Overflow
// drops new spans (keeping the run's head), deterministically, and is
// counted — drop-oldest would make "which spans survived" depend on
// the total, which is fine, but drop-new keeps the buffer append-only
// and the retained prefix stable under cap changes at the tail.
const DefaultMaxSpansPerDevice = 16384

// shardBlock mirrors the fleet accumulator's fold-block width: trace
// "shards" are the fixed index blocks, so they never depend on the
// worker count. Block b holds devices [b*shardBlock,
// (b+1)*shardBlock).
const shardBlock = 1024

// Config tunes a Tracer.
type Config struct {
	// SampleRate samples 1 in SampleRate devices for engine-phase
	// tracing (1 = every device, 0 = DefaultSampleRate). Control-plane
	// spans are always collected.
	SampleRate int
}

func (c *Config) fill() {
	if c.SampleRate <= 0 {
		c.SampleRate = DefaultSampleRate
	}
}

// splitmix64 is the SplitMix64 finalizer — the same derivation the
// fleet uses for per-device seeds, reused here so span identity and
// device seeds hang off one chain discipline.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// golden is the 64-bit golden-ratio increment used to spread child
// indexes before finalizing.
const golden = 0x9e3779b97f4a7c15

// Derive chains child index's span ID off parent. Pure: the tree's
// shape alone fixes every ID.
func Derive(parent SpanID, index uint64) SpanID {
	return SpanID(splitmix64(uint64(parent) + index*golden))
}

// RootID derives an operation's root span ID from its seed string
// (the jobs plane passes the spec's content address).
func RootID(seed string) SpanID {
	h := fnv.New64a()
	_, _ = h.Write([]byte("trace/v1|"))
	_, _ = h.Write([]byte(seed))
	return SpanID(splitmix64(h.Sum64()))
}

// sampleSalt separates the sampling decision chain from the span-ID
// chain, so which devices are sampled is uncorrelated with their IDs.
const sampleSalt = 0x5ca1ab1e

// Sampled reports whether device i is head-sampled under root at
// 1-in-rate. Pure, so any layer can re-derive the decision.
func Sampled(root SpanID, i, rate int) bool {
	if rate <= 1 {
		return rate == 1
	}
	return uint64(Derive(Derive(root, sampleSalt), uint64(i)))%uint64(rate) == 0
}

// Stage is one wall-clock lifecycle stage of a traced operation
// (queued, running, artifact-write, cache-hit). Stages live on the
// live side of the determinism split: they never enter artifacts.
type Stage struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

// Tracer collects one traced operation's spans: the request root, the
// job span beneath it, and — once Fleet() threads it through a fleet
// run — shard and device subtrees. Control-plane methods are
// goroutine-safe; DeviceTracers are single-goroutine like the engines
// they observe.
type Tracer struct {
	cfg     Config
	root    SpanID
	rootNm  string
	jobID   SpanID
	jobNm   string
	wall0   int64 // wall-clock unix ns at New
	horizon int64 // virtual window for fleet-less operations

	mu     sync.Mutex
	stages []Stage
	fleet  *FleetTrace
	wall1  int64
}

// New builds a tracer for one operation. seed is the determinism root
// (the job's content address); rootName names the request span.
func New(seed, rootName string, cfg Config) *Tracer {
	cfg.fill()
	root := RootID(seed)
	return &Tracer{
		cfg:    cfg,
		root:   root,
		rootNm: rootName,
		jobID:  Derive(root, 1),
		wall0:  time.Now().UnixNano(),
	}
}

// Root returns the request span's ID (the exemplar the RED histograms
// attach to). Nil-safe: an untraced operation reports span 0.
func (t *Tracer) Root() SpanID {
	if t == nil {
		return 0
	}
	return t.root
}

// SetJobName names the job span ("fleet gamer/none"); call before
// Spans.
func (t *Tracer) SetJobName(name string) {
	t.mu.Lock()
	t.jobNm = name
	t.mu.Unlock()
}

// SetHorizon gives fleet-less operations (corpus jobs) a virtual
// window for the request/job spans.
func (t *Tracer) SetHorizon(d time.Duration) {
	t.mu.Lock()
	t.horizon = int64(d)
	t.mu.Unlock()
}

// AddStage appends one wall-clock lifecycle stage.
func (t *Tracer) AddStage(name string, d time.Duration) {
	t.mu.Lock()
	t.stages = append(t.stages, Stage{Name: name, WallMS: float64(d.Microseconds()) / 1000})
	t.mu.Unlock()
}

// Fleet threads the tracer through one fleet run of n devices and
// returns the handle for fleet.Spec.Trace. One fleet per tracer.
func (t *Tracer) Fleet(n int) *FleetTrace {
	ft := &FleetTrace{
		t:    t,
		n:    n,
		ends: make([]int64, n),
		devs: make(map[int]*DeviceTracer),
	}
	t.mu.Lock()
	t.fleet = ft
	t.mu.Unlock()
	return ft
}

// Finish stamps the operation's wall end. Idempotent enough: last
// call wins.
func (t *Tracer) Finish() {
	t.mu.Lock()
	t.wall1 = time.Now().UnixNano()
	t.mu.Unlock()
}

// Spans assembles the deterministic span tree: request → job → shards
// (fixed index blocks) → sampled devices → engine phases, in index
// order, with control-plane windows rolled up from every device's
// virtual end (sampled or not). The result is a pure function of the
// operation's seed, shape and per-device virtual behaviour — wall
// time, worker count and scheduling never enter.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()

	jobName := t.jobNm
	if jobName == "" {
		jobName = "job"
	}
	out := make([]Span, 0, t.spanCountLocked())
	// Placeholders; windows are rolled up below.
	out = append(out,
		Span{ID: t.root, Kind: KindRequest, Name: t.rootNm, Dev: -1, End: t.horizon},
		Span{ID: t.jobID, Parent: t.root, Kind: KindJob, Name: jobName, Dev: -1, End: t.horizon},
	)
	if ft := t.fleet; ft != nil {
		nb := (ft.n + shardBlock - 1) / shardBlock
		var jobEnd int64
		for b := 0; b < nb; b++ {
			shardID := Derive(t.jobID, uint64(b))
			lo, hi := b*shardBlock, min((b+1)*shardBlock, ft.n)
			var end int64
			for i := lo; i < hi; i++ {
				if e := ft.ends[i]; e > end {
					end = e
				}
			}
			if end > jobEnd {
				jobEnd = end
			}
			out = append(out, Span{
				ID: shardID, Parent: t.jobID, Kind: KindShard,
				Name: fmt.Sprintf("shard-%d", b), Dev: -1, End: end,
				N: float64(hi - lo),
			})
		}
		out[0].End, out[1].End = jobEnd, jobEnd
		for i := 0; i < ft.n; i++ {
			dt := ft.devs[i]
			if dt == nil {
				continue
			}
			out = append(out, dt.span)
			out = dt.appendMerged(out)
		}
	}
	return out
}

// SpanCount reports the size of the deterministic tree without
// assembling it — Spans() materializes ~100 bytes per span, which the
// live feed's per-publish summaries and the overhead study's counters
// have no use for.
func (t *Tracer) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spanCountLocked()
}

func (t *Tracer) spanCountLocked() int {
	total := 2
	if ft := t.fleet; ft != nil {
		total += (ft.n + shardBlock - 1) / shardBlock
		for _, dt := range ft.devs {
			total += 1 + dt.count
		}
	}
	return total
}

// Dropped sums span-buffer overflow across sampled devices.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fleet == nil {
		return 0
	}
	var n uint64
	for _, dt := range t.fleet.devs {
		n += dt.dropped
	}
	return n
}

// Summary is the live /trace view of one finished operation: wall-
// clock lifecycle stages plus deterministic tree counts. This is the
// wall side of the determinism split — it never enters artifacts.
type Summary struct {
	Root   SpanID `json:"root"`
	Name   string `json:"name"`
	JobID  string `json:"job_id,omitempty"`
	Key    string `json:"key,omitempty"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	// Spans counts the deterministic tree; Devices the fleet size;
	// Sampled how many devices carried engine-phase tracing.
	Spans   int     `json:"spans"`
	Devices int     `json:"devices"`
	Sampled int     `json:"sampled"`
	Dropped uint64  `json:"dropped_spans,omitempty"`
	WallMS  float64 `json:"wall_ms"`
	Stages  []Stage `json:"stages,omitempty"`
}

// Summarize freezes the tracer into a live Summary.
func (t *Tracer) Summarize(state string) *Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Summary{
		Root:    t.root,
		Name:    t.rootNm,
		State:   state,
		Spans:   t.spanCountLocked(),
		Stages:  append([]Stage(nil), t.stages...),
		Dropped: 0,
	}
	if t.fleet != nil {
		s.Devices = t.fleet.n
		for _, dt := range t.fleet.devs {
			s.Sampled++
			s.Dropped += dt.dropped
		}
	}
	if t.wall1 > t.wall0 {
		s.WallMS = float64(t.wall1-t.wall0) / 1e6
	}
	return s
}

// FleetTrace is the tracer's fleet-side handle: it hands a sampled
// DeviceTracer to each worker and collects the finished buffers.
type FleetTrace struct {
	t *Tracer
	n int

	// ends[i] is device i's final virtual ns — written once per device
	// from the worker that ran it (disjoint indexes, no lock), read
	// only after the pool joins.
	ends []int64

	mu   sync.Mutex
	devs map[int]*DeviceTracer
}

// Device returns device i's tracer, or nil when i is unsampled (the
// common case — callers nil-check, and a nil DeviceTracer is inert).
func (ft *FleetTrace) Device(i int) *DeviceTracer {
	if ft == nil || !Sampled(ft.t.root, i, ft.t.cfg.SampleRate) {
		return nil
	}
	shardID := Derive(ft.t.jobID, uint64(i/shardBlock))
	id := Derive(shardID, uint64(i))
	return &DeviceTracer{
		id: id,
		span: Span{
			ID: id, Parent: shardID, Kind: KindDevice,
			Name: fmt.Sprintf("device-%d", i), Dev: i,
		},
	}
}

// Finish records device i's final virtual instant and, when dt is
// non-nil, closes its device span and files the buffer. Called once
// per device from the worker goroutine that ran it.
func (ft *FleetTrace) Finish(i int, dt *DeviceTracer, end sim.Time) {
	if ft == nil {
		return
	}
	ft.ends[i] = int64(end)
	if dt == nil {
		return
	}
	dt.span.End = int64(end)
	ft.mu.Lock()
	ft.devs[i] = dt
	ft.mu.Unlock()
}

// DeviceTracer collects one sampled device's engine-phase spans.
// Single-goroutine, like the engine; methods are nil-safe so call
// sites on unsampled devices pay one branch.
//
// The record path is the tracer's hot loop — a fully traced device
// appends thousands of phases — so it stores compact 32-byte records
// bucketed into one run per phase name, not full Spans: the parent,
// kind, device index and name are the same for every record in a run,
// and the span ID re-derives from the stored sequence number whenever
// the tree is assembled. Every producer the engine hooks up — meter
// flushes, watchdog windows, the post-run kernel-batch fold — emits
// its stream in virtual-time order, so each run stays sorted as it
// grows and assembly is an O(n) k-way merge, never a sort, of the
// interleaved whole (which is far from sorted: watchdog windows open
// long before the meter flushes they land between, and the kernel
// fold appends a whole trailing run).
type DeviceTracer struct {
	id      SpanID
	span    Span // the structural device span
	next    uint64
	runs    []phaseRun
	last    int // index of the run the previous phase went to
	count   int
	dropped uint64
}

// phaseRec is one phase occurrence: its position in the device's
// append sequence (the ID derivation index) and the virtual window.
type phaseRec struct {
	seq        uint64
	start, end int64
	n          float64
}

// phaseRun is one phase name's record stream. sorted tracks whether
// the producer kept virtual-start order; a run that didn't demotes
// assembly to a real sort.
type phaseRun struct {
	name   string
	recs   []phaseRec
	sorted bool
}

// run returns (creating on first use) the run for a phase name. The
// scan is over at most a handful of names, and the compares are
// pointer-equal for the package's own phase constants; a producer that
// emits one name many times in a row (the kernel-batch fold) skips it.
func (d *DeviceTracer) run(name string) *phaseRun {
	if d.last < len(d.runs) && d.runs[d.last].name == name {
		return &d.runs[d.last]
	}
	for i := range d.runs {
		if d.runs[i].name == name {
			d.last = i
			return &d.runs[i]
		}
	}
	d.last = len(d.runs)
	d.runs = append(d.runs, phaseRun{name: name, sorted: true})
	return &d.runs[d.last]
}

// Reserve makes room for n more phases named name, so a producer that
// can count its phases before it emits them (the kernel-batch fold)
// appends them into one allocation instead of regrowing the run.
func (d *DeviceTracer) Reserve(name string, n int) {
	if d == nil || n <= 0 {
		return
	}
	r := d.run(name)
	r.recs = slices.Grow(r.recs, n)
}

// Phase appends one completed engine-phase span [start, end]. Over
// the buffer cap it counts a drop instead (the head of the run is
// retained; see DefaultMaxSpansPerDevice).
func (d *DeviceTracer) Phase(name string, start, end sim.Time, n float64) {
	if d == nil {
		return
	}
	if d.count >= DefaultMaxSpansPerDevice {
		d.dropped++
		return
	}
	r := d.run(name)
	if k := len(r.recs); k > 0 && int64(start) < r.recs[k-1].start {
		r.sorted = false
	}
	r.recs = append(r.recs, phaseRec{seq: d.next, start: int64(start), end: int64(end), n: n})
	d.next++
	d.count++
}

// spanAt materializes run r's record k as a full Span.
func (d *DeviceTracer) spanAt(r *phaseRun, k int) Span {
	rec := &r.recs[k]
	return Span{
		ID: Derive(d.id, rec.seq), Parent: d.id, Kind: KindPhase,
		Name: r.name, Dev: d.span.Dev,
		Start: rec.start, End: rec.end, N: rec.n,
	}
}

// appendMerged appends the device's phase spans to out in virtual-
// time order. With every run sorted (the always case for the engine's
// own producers) this is a k-way merge over k = len(runs) streams —
// O(n) with direct comparisons on the compact records. A producer
// that broke order demotes the device to a real sort; either way the
// result is a pure function of the append sequence, so the
// byte-identity gate holds.
func (d *DeviceTracer) appendMerged(out []Span) []Span {
	allSorted := true
	for i := range d.runs {
		allSorted = allSorted && d.runs[i].sorted
	}
	if !allSorted {
		base := len(out)
		for i := range d.runs {
			for k := range d.runs[i].recs {
				out = append(out, d.spanAt(&d.runs[i], k))
			}
		}
		seg := out[base:]
		sort.Slice(seg, func(i, j int) bool { return less(&seg[i], &seg[j]) })
		return out
	}
	// The merge heads live in a stack array for the handful of phase
	// names the engine's producers create; only a wider tracer pays
	// for a heap slice.
	var stack [8]int
	var heads []int
	if len(d.runs) <= len(stack) {
		heads = stack[:len(d.runs)]
	} else {
		heads = make([]int, len(d.runs))
	}
	for n := 0; n < d.count; n++ {
		best := -1
		for i := range d.runs {
			if heads[i] >= len(d.runs[i].recs) {
				continue
			}
			if best < 0 || recLess(&d.runs[i].recs[heads[i]], &d.runs[best].recs[heads[best]], d) {
				best = i
			}
		}
		out = append(out, d.spanAt(&d.runs[best], heads[best]))
		heads[best]++
	}
	return out
}

// recLess is the merge order on compact records: virtual start, then
// derived span ID — the same total order less() gives full Spans.
func recLess(a, b *phaseRec, d *DeviceTracer) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	return Derive(d.id, a.seq) < Derive(d.id, b.seq)
}

// Accrue implements hw.Sink: every integrated meter interval becomes
// one meter-flush phase span. The interval's per-app table is
// borrowed storage, but only the endpoints and totals are read here —
// nothing is retained.
func (d *DeviceTracer) Accrue(iv hw.Interval) {
	d.Phase(PhaseMeterFlush, iv.From, iv.To, iv.ScreenJ+iv.SystemJ)
}

// Dropped reports spans discarded over the buffer cap.
func (d *DeviceTracer) Dropped() uint64 {
	if d == nil {
		return 0
	}
	return d.dropped
}

// less is the merge/sort order: virtual start, then ID. Total —
// span IDs are unique — so every ordering built on it is
// deterministic.
func less(a, b *Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ID < b.ID
}
