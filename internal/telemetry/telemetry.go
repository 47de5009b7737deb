// Package telemetry is the simulation's observability subsystem: a
// typed, ring-buffered event tracer plus a lock-free metrics registry.
// Events export as JSONL, their own JSON form (WriteJSONL); the Chrome
// trace-event and Prometheus text encoders, shared with the jobs
// plane's artifacts, live in internal/obsv.
//
// The design mirrors the paper's own implementation strategy: E-Android
// is itself an instrumentation layer grafted onto Android's
// BatteryStats/eventlog plumbing, and the paper spends a section (§VI-C)
// proving that the instrumentation is cheap. This package is the repro's
// analog: every subsystem (sim kernel, activity manager, hardware meter,
// accountant) emits structured events through nil-checked hooks, and
// `benchsuite` measures the recording overhead the same way the paper
// measures E-Android against stock Android.
//
// Concurrency: a Recorder is single-goroutine, exactly like the engine
// it observes. The fleet runner gives each device its own Recorder and
// merges the per-device metric snapshots in device-index order, which
// keeps the merged snapshot byte-identical for any worker count.
//
// Cost model: a nil *Recorder is the off state and every method no-ops
// on it, so call sites can hook unconditionally; there is no other off
// state. Kernel event firings — the highest-volume record kind by far —
// skip the callback layer entirely: a recorder hands the engine a
// compact sim.TraceLog that dispatch fills inline, and Events() merges
// it with the general ring by a shared emission sequence.
package telemetry

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/sim"
)

// Kind classifies a structured event.
type Kind uint8

// Event kinds, one per instrumented subsystem concern.
const (
	// KindSimEvent is a discrete-event kernel firing.
	KindSimEvent Kind = iota + 1
	// KindLifecycle is an activity lifecycle transition.
	KindLifecycle
	// KindPowerState is a hardware component power-state change
	// (screen, suspend, brightness, CPU share, peripheral hold).
	KindPowerState
	// KindBattery is a battery ledger update (one accrued interval).
	KindBattery
	// KindAttribution is one accounting attribution: energy from an
	// accrued interval landing in an app's ledger.
	KindAttribution
	// KindViolation is one runtime invariant violation recorded by the
	// check subsystem.
	KindViolation
	// KindAnomaly is one drain-anomaly finding flagged by the
	// observability watchdog (internal/obsv): a per-UID drain-rate spike
	// or a collateral-vs-direct energy divergence.
	KindAnomaly
)

func (k Kind) String() string {
	switch k {
	case KindSimEvent:
		return "sim"
	case KindLifecycle:
		return "lifecycle"
	case KindPowerState:
		return "power"
	case KindBattery:
		return "battery"
	case KindAttribution:
		return "attribution"
	case KindViolation:
		return "violation"
	case KindAnomaly:
		return "anomaly"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON renders the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Event is one structured telemetry record. The meaning of V0/V1 depends
// on Kind:
//
//	KindSimEvent:    V0 = event-queue depth after pop
//	KindLifecycle:   From/To carry the states; V0/V1 unused
//	KindPowerState:  V0 = old value, V1 = new value
//	KindBattery:     V0 = joules drained this interval, V1 = battery %
//	KindAttribution: V0 = joules attributed to UID this interval
//	KindViolation:   Name = invariant, To = detail, V0/V1 = got/want
//	KindAnomaly:     Name = signal, To = detail, V0 = rate mW, V1 = baseline mW
type Event struct {
	T    sim.Time `json:"t"`
	Kind Kind     `json:"kind"`
	// Name is the kernel event name, component name, or subsystem label.
	Name string  `json:"name"`
	UID  app.UID `json:"uid,omitempty"`
	From string  `json:"from,omitempty"`
	To   string  `json:"to,omitempty"`
	V0   float64 `json:"v0,omitempty"`
	V1   float64 `json:"v1,omitempty"`
}

// Options configures a Recorder.
type Options struct {
	// EventCapacity bounds the event ring buffer; once full, the oldest
	// events are overwritten (Dropped counts them). Zero means
	// DefaultEventCapacity; negative disables event recording entirely
	// while keeping metrics live.
	EventCapacity int
}

// DefaultEventCapacity is the ring size used when Options.EventCapacity
// is zero: large enough for minutes of simulated activity, small enough
// to stay cache-friendly.
const DefaultEventCapacity = 1 << 12

// Recorder is the typed event tracer: a fixed-size ring of structured
// events plus the standard metric instruments every subsystem feeds.
// A nil Recorder is valid and records nothing (the zero-cost path).
type Recorder struct {
	buf   []Event
	w     int    // next ring slot to write; wraps at len(buf)
	total uint64 // events ever appended

	// simLog holds every kernel event firing: a compact ring the
	// engine fills inline from its dispatch loop (no callback, no
	// full-width Event fill — see sim.TraceLog). Its Seq field is the
	// shared emission sequence for ALL records, kernel or not; Events()
	// merges the two rings by it. Its Depth/MaxDepth/Total fields
	// shadow the sim.queue_depth{,_max} gauges and the events_fired
	// counter, synced into the registry by Metrics().
	simLog *sim.TraceLog
	// seqs[i] is the emission sequence of buf[i], parallel to the ring.
	seqs []uint64

	metrics *Metrics

	// Pre-resolved instruments for hot paths (one map lookup at build
	// time instead of one per emission).
	cSim       *Counter
	gQueue     *Gauge
	gQueueMax  *Gauge
	cLifecycle *Counter
	cPower     *Counter
	cBattery   *Counter
	cAttr      *Counter
	cViolation *Counter
	cAnomaly   *Counter
	gDropped   *Gauge
	gRingCap   *Gauge

	hMW   map[string]*Histogram  // per-component mW distributions
	hUIDJ map[app.UID]*Histogram // per-UID attributed-J distributions
}

// New builds a Recorder with its own Metrics registry.
func New(opts Options) *Recorder {
	capacity := opts.EventCapacity
	if capacity == 0 {
		capacity = DefaultEventCapacity
	}
	r := &Recorder{
		simLog:  &sim.TraceLog{},
		metrics: NewMetrics(),
		hMW:     make(map[string]*Histogram),
		hUIDJ:   make(map[app.UID]*Histogram),
	}
	if capacity > 0 {
		r.buf = make([]Event, capacity)
		r.seqs = make([]uint64, capacity)
		r.simLog.Buf = make([]sim.TraceRecord, capacity)
	}
	r.cSim = r.metrics.Counter("sim.events_fired")
	r.gQueue = r.metrics.Gauge("sim.queue_depth")
	r.gQueueMax = r.metrics.Gauge("sim.queue_depth_max")
	r.cLifecycle = r.metrics.Counter("activity.lifecycle_transitions")
	r.cPower = r.metrics.Counter("hw.power_state_changes")
	r.cBattery = r.metrics.Counter("hw.battery_updates")
	r.cAttr = r.metrics.Counter("acct.attributions")
	r.cViolation = r.metrics.Counter("check.violations")
	r.cAnomaly = r.metrics.Counter("obsv.anomalies")
	r.gDropped = r.metrics.Gauge("telemetry.events_dropped")
	r.gRingCap = r.metrics.Gauge("telemetry.ring_capacity")
	r.gRingCap.Set(float64(len(r.buf)))
	return r
}

// Metrics returns the recorder's registry, nil for a nil recorder. The
// queue-depth gauges are synced from their shadow fields here — every
// snapshot/export path reads the registry through this accessor.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	r.cSim.v = float64(r.simLog.Total)
	r.gQueue.Set(float64(r.simLog.Depth))
	r.gQueueMax.Set(float64(r.simLog.MaxDepth))
	r.gDropped.Set(float64(r.Dropped()))
	return r.metrics
}

// slot advances the ring and returns the slot for the next event (nil
// when event recording is off, i.e. negative capacity). Callers write
// every field in place: compared to building an Event and copying it
// in, this skips a ~100-byte struct copy and the modulo of the old
// total-based indexing on every emission — the recording fast path is
// exactly what the enabled-overhead gate spends its budget on.
func (r *Recorder) slot() *Event {
	r.total++
	r.simLog.Seq++ // shared emission sequence across both rings
	if len(r.buf) == 0 {
		return nil
	}
	r.seqs[r.w] = r.simLog.Seq
	ev := &r.buf[r.w]
	r.w++
	if r.w == len(r.buf) {
		r.w = 0
	}
	return ev
}

// RecordSimEvent records one kernel event firing and samples the queue
// depth gauges. An instrumented engine never calls this — it fills the
// trace log inline from dispatch; this entry point serves manual
// recording (tests, replay tooling) and lands in the same log.
func (r *Recorder) RecordSimEvent(t sim.Time, name string, queueDepth int) {
	if r == nil {
		return
	}
	r.simLog.Log(t, name, queueDepth)
}

// RecordLifecycle records an activity lifecycle transition.
func (r *Recorder) RecordLifecycle(t sim.Time, uid app.UID, component, from, to string) {
	if r == nil {
		return
	}
	r.cLifecycle.Inc()
	if ev := r.slot(); ev != nil {
		ev.T = t
		ev.Kind = KindLifecycle
		ev.Name = component
		ev.UID = uid
		ev.From = from
		ev.To = to
		ev.V0 = 0
		ev.V1 = 0
	}
}

// RecordPowerState records a hardware power-state change on component
// name (old and new are the numeric state, e.g. 0/1 for off/on or a
// brightness level).
func (r *Recorder) RecordPowerState(t sim.Time, uid app.UID, name string, old, new float64) {
	if r == nil {
		return
	}
	r.cPower.Inc()
	if ev := r.slot(); ev != nil {
		ev.T = t
		ev.Kind = KindPowerState
		ev.Name = name
		ev.UID = uid
		ev.From = ""
		ev.To = ""
		ev.V0 = old
		ev.V1 = new
	}
}

// RecordBattery records one accrued battery interval: drainedJ joules
// drained, leaving the battery at pct percent.
func (r *Recorder) RecordBattery(t sim.Time, drainedJ, pct float64) {
	if r == nil {
		return
	}
	r.cBattery.Inc()
	if ev := r.slot(); ev != nil {
		ev.T = t
		ev.Kind = KindBattery
		ev.Name = "battery"
		ev.UID = 0
		ev.From = ""
		ev.To = ""
		ev.V0 = drainedJ
		ev.V1 = pct
	}
}

// RecordAttribution records joules landing in uid's ledger over one
// accrued interval and feeds the per-UID energy distribution.
func (r *Recorder) RecordAttribution(t sim.Time, uid app.UID, joules float64) {
	if r == nil {
		return
	}
	r.cAttr.Inc()
	h := r.hUIDJ[uid]
	if h == nil {
		h = r.metrics.Histogram(fmt.Sprintf("acct.j_per_interval.uid%d", uid), EnergyBuckets)
		r.hUIDJ[uid] = h
	}
	h.Observe(joules)
	if ev := r.slot(); ev != nil {
		ev.T = t
		ev.Kind = KindAttribution
		ev.Name = "attribution"
		ev.UID = uid
		ev.From = ""
		ev.To = ""
		ev.V0 = joules
		ev.V1 = 0
	}
}

// RecordViolation records one invariant violation from the check
// subsystem: invariant names the checker family, detail describes the
// breach, got/want carry the compared quantities (zero when the breach
// is structural rather than numeric).
func (r *Recorder) RecordViolation(t sim.Time, invariant, detail string, got, want float64) {
	if r == nil {
		return
	}
	r.cViolation.Inc()
	if ev := r.slot(); ev != nil {
		ev.T = t
		ev.Kind = KindViolation
		ev.Name = invariant
		ev.UID = 0
		ev.From = ""
		ev.To = detail
		ev.V0 = got
		ev.V1 = want
	}
}

// RecordAnomaly records one watchdog finding: signal names the detector
// ("drain-spike", "collateral-divergence"), detail describes the flagged
// subject, rateMW is the offending rate and baselineMW the reference it
// was judged against (the direct rate for divergence findings).
func (r *Recorder) RecordAnomaly(t sim.Time, uid app.UID, signal, detail string, rateMW, baselineMW float64) {
	if r == nil {
		return
	}
	r.cAnomaly.Inc()
	if ev := r.slot(); ev != nil {
		ev.T = t
		ev.Kind = KindAnomaly
		ev.Name = signal
		ev.UID = uid
		ev.From = ""
		ev.To = detail
		ev.V0 = rateMW
		ev.V1 = baselineMW
	}
}

// ObserveComponentMW feeds one accrued interval's mean power draw for a
// hardware component into that component's mW distribution.
func (r *Recorder) ObserveComponentMW(component string, mw float64) {
	if r == nil {
		return
	}
	h := r.hMW[component]
	if h == nil {
		h = r.metrics.Histogram("hw.mw."+component, PowerBuckets)
		r.hMW[component] = h
	}
	h.Observe(mw)
}

// Total reports how many events were ever recorded (including any that
// have since been overwritten), kernel firings included.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total + r.simLog.Total
}

// Dropped reports how many events the rings overwrote.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	d := r.simLog.Dropped()
	if n := uint64(len(r.buf)); r.total > n {
		d += r.total - n
	}
	return d
}

// Events returns the retained events, oldest first: the kernel trace
// log and the general ring merged back into global recording order by
// the shared emission sequence. The slice is a copy.
func (r *Recorder) Events() []Event {
	if r == nil || r.total+r.simLog.Total == 0 {
		return nil
	}
	// The general ring's retained events with their sequences, oldest
	// first (the ring and seqs rotate together).
	var evs []Event
	var seqs []uint64
	if n := uint64(len(r.buf)); n > 0 && r.total > 0 {
		if r.total <= n {
			evs = r.buf[:r.total:r.total]
			seqs = r.seqs[:r.total]
		} else {
			evs = make([]Event, 0, n)
			evs = append(evs, r.buf[r.w:]...) // r.w is the oldest slot once wrapped
			evs = append(evs, r.buf[:r.w]...)
			seqs = make([]uint64, 0, n)
			seqs = append(seqs, r.seqs[r.w:]...)
			seqs = append(seqs, r.seqs[:r.w]...)
		}
	}
	recs := r.simLog.Records()
	out := make([]Event, 0, len(evs)+len(recs))
	i, j := 0, 0
	for i < len(evs) || j < len(recs) {
		if j >= len(recs) || (i < len(evs) && seqs[i] < recs[j].Seq) {
			out = append(out, evs[i])
			i++
			continue
		}
		rec := recs[j]
		j++
		out = append(out, Event{T: rec.T, Kind: KindSimEvent, Name: rec.Name, V0: float64(rec.Depth)})
	}
	return out
}

// KernelBatch is one same-instant run of kernel event firings: the
// timing wheel dispatches all events due at one virtual instant as a
// batch, and the trace log records them back-to-back with equal T.
type KernelBatch struct {
	// T is the batch's virtual instant.
	T sim.Time
	// N is how many events fired at T (within the retained window).
	N int
}

// ForEachKernelBatch streams the retained kernel trace-log firings,
// coalesced into same-instant dispatch batches, oldest first — the
// allocation-free form the fleet's tracer folds from after every
// sampled device (a per-device []KernelBatch materialization showed
// up in the tracing overhead gate). Only the retained ring window is
// visible, so long runs see the tail.
func (r *Recorder) ForEachKernelBatch(fn func(KernelBatch)) {
	if r == nil {
		return
	}
	tl := r.simLog
	if len(tl.Buf) == 0 || tl.Total == 0 {
		return
	}
	// Oldest-first ring order without linearizing: one segment when the
	// ring has not wrapped, two when it has (W is the oldest slot).
	segs := [2][]sim.TraceRecord{tl.Buf[:min(int(tl.Total), len(tl.Buf))]}
	if tl.Total > uint64(len(tl.Buf)) {
		segs[0], segs[1] = tl.Buf[tl.W:], tl.Buf[:tl.W]
	}
	var cur KernelBatch
	started := false
	for _, seg := range segs {
		for i := range seg {
			if t := seg[i].T; !started || t != cur.T {
				if started {
					fn(cur)
				}
				cur = KernelBatch{T: t, N: 0}
				started = true
			}
			cur.N++
		}
	}
	if started {
		fn(cur)
	}
}

// InstrumentEngine wires r to e: every fired kernel event lands in the
// recorder's trace log (a KindSimEvent record in Events()) and feeds
// the events-fired counter and queue-depth gauges. A nil recorder
// leaves the engine untraced, so event dispatch keeps its fast path.
// One recorder may instrument several engines run one after another
// (the CLIs' serial experiment worlds): each gets the same log, so the
// counters cover every engine. Reports whether the log was installed.
func InstrumentEngine(e *sim.Engine, r *Recorder) bool {
	if e == nil || r == nil {
		return false
	}
	e.SetTraceLog(r.simLog)
	return true
}
