package sim

import (
	"errors"
	"fmt"
)

// ErrStopped is returned by Run variants when the engine was halted by a
// call to Stop before the requested horizon was reached.
var ErrStopped = errors.New("sim: engine stopped")

// Event is a scheduled callback. Events fire in timestamp order; ties are
// broken by scheduling order (FIFO), which keeps scenarios deterministic.
// Events are pool-owned: once fired or cancelled they are recycled for
// the next Schedule, so callers hold Handles (generation-checked) rather
// than *Event.
type Event struct {
	at   Time
	seq  uint64
	name string
	fn   func()

	// slot locates the event inside the timing wheel (locFree when not
	// queued, locBatch/locOverflow, or level<<slotBits|index); pos is
	// its position within that slot's slice, for O(1) swap-delete.
	slot     int32
	pos      int32
	canceled bool
	// gen increments every time the event returns to its pool; a Handle
	// captured before that no longer matches and turns into a no-op.
	gen uint32
}

// Handle refers to a scheduled event. The zero Handle is valid and
// refers to nothing. Handles stay safe after their event fires: the
// event's recycle bumps its generation, so a stale Handle's Cancel (or
// accessors) cannot touch whatever the pooled Event was reused for.
type Handle struct {
	eng *Engine
	ev  *Event
	gen uint32
}

// live reports whether the handle still refers to its original event.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// At reports the instant the event is scheduled to fire (zero for a
// stale or empty handle).
func (h Handle) At() Time {
	if h.live() {
		return h.ev.at
	}
	return 0
}

// Name reports the diagnostic label given at scheduling time ("" for a
// stale or empty handle).
func (h Handle) Name() string {
	if h.live() {
		return h.ev.name
	}
	return ""
}

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was already cancelled, or an empty handle) is a
// no-op. A wheel-resident event is unlinked and recycled immediately —
// cancellation reclaims the slot rather than leaving a tombstone — so
// QueueLen drops right away; an event already in the current dispatch
// batch is marked and reclaimed when the batch reaches it.
func (h Handle) Cancel() {
	if !h.live() || h.ev.canceled || h.ev.slot == locFree {
		return
	}
	h.eng.cancelEvent(h.ev)
}

// Scheduled reports whether the event is still queued to fire.
func (h Handle) Scheduled() bool {
	return h.live() && !h.ev.canceled && h.ev.slot != locFree
}

// EventPool recycles Event allocations and timing-wheel arenas. Every
// engine owns one by default; sequential engines (a fleet worker
// running one device after another) can share a single pool via
// SetEventPool so each device reuses its predecessor's arenas instead
// of growing fresh ones for the GC to sweep. A pool is
// single-goroutine, like the engines it feeds.
type EventPool struct {
	free []*Event
	// wheels holds recycled timing wheels (see Engine.Recycle) with
	// their slot, batch and overflow arrays kept warm for the next
	// engine.
	wheels []*wheel
}

// NewEventPool returns an empty pool.
func NewEventPool() *EventPool { return &EventPool{} }

func (p *EventPool) get() *Event {
	if n := len(p.free); n > 0 {
		ev := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return ev
	}
	return &Event{slot: locFree, pos: -1}
}

func (p *EventPool) put(ev *Event) {
	ev.gen++
	ev.fn = nil // release the closure now, not at next reuse
	ev.name = ""
	ev.slot, ev.pos = locFree, -1
	ev.canceled = false
	p.free = append(p.free, ev)
}

func (p *EventPool) getWheel() *wheel {
	if n := len(p.wheels); n > 0 {
		w := p.wheels[n-1]
		p.wheels[n-1] = nil
		p.wheels = p.wheels[:n-1]
		return w
	}
	return newWheel()
}

func (p *EventPool) putWheel(w *wheel) { p.wheels = append(p.wheels, w) }

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use: the simulated device is single-threaded by design, which
// is what makes runs reproducible.
type Engine struct {
	now Time
	// wheel is the hierarchical timing-wheel event store, acquired
	// lazily from the pool on first use so pool-sharing engines reuse a
	// predecessor's warm arenas (see EventPool and Recycle).
	wheel   *wheel
	seq     uint64
	stopped bool
	pool    *EventPool

	// tlog, when set, receives every dispatched event inline (see
	// TraceLog); the telemetry recorder rides it.
	tlog *TraceLog
	// failErr holds an injected failure (see Fail) until a run loop
	// surfaces it.
	failErr error
}

// NewEngine returns an engine whose clock reads T+0.
func NewEngine() *Engine {
	return &Engine{pool: NewEventPool()}
}

// SetEventPool replaces the engine's event pool (never nil). Call it
// before scheduling anything; events already recycled stay in the old
// pool. Pool reuse does not affect determinism — a recycled Event is
// fully re-initialized on Schedule.
func (e *Engine) SetEventPool(p *EventPool) {
	if p != nil {
		e.pool = p
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// QueueLen reports the number of live queued events in O(1). Cancelled
// events are reclaimed immediately by the wheel, so QueueLen and
// Pending agree.
func (e *Engine) QueueLen() int {
	if e.wheel == nil {
		return 0
	}
	return e.wheel.live
}

// Schedule queues fn to run at instant at. Scheduling in the past (before
// Now) panics: it always indicates a scenario bug, and silently clamping
// would corrupt energy integration. The returned Handle cancels or
// inspects the pending event; it goes stale (harmlessly) once the event
// fires and its pooled Event is recycled.
func (e *Engine) Schedule(at Time, name string, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", name, at, e.now))
	}
	w := e.wheel
	if w == nil {
		w = e.pool.getWheel()
		e.wheel = w
	}
	ev := e.pool.get()
	ev.at, ev.seq, ev.name, ev.fn = at, e.seq, name, fn
	ev.canceled = false
	e.seq++
	w.place(ev)
	w.live++
	return Handle{eng: e, ev: ev, gen: ev.gen}
}

// cancelEvent removes a pending event (Handle.Cancel has already
// checked liveness). Wheel- and overflow-resident events are unlinked
// and recycled on the spot; batch-resident ones are marked and
// reclaimed when dispatch reaches them.
func (e *Engine) cancelEvent(ev *Event) {
	e.wheel.live--
	if e.wheel.remove(ev) {
		e.pool.put(ev)
		return
	}
	ev.canceled = true
}

// After queues fn to run d after the current instant.
func (e *Engine) After(d Duration, name string, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	return e.Schedule(e.now.Add(d), name, fn)
}

// Every schedules fn at period intervals, first firing one period from
// now, until the returned Ticker is stopped. A period of zero or less
// panics.
func (e *Engine) Every(period Duration, name string, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v for %q", period, name))
	}
	t := &Ticker{engine: e, period: period, name: name, fn: fn}
	t.arm()
	return t
}

// Stop halts the run loop after the currently executing event returns.
// It affects only the run in flight: the next RunUntil/RunFor/Drain
// call clears the flag on entry and resumes from the current instant.
func (e *Engine) Stop() { e.stopped = true }

// Fail halts the run loop like Stop, but makes the Run variant in
// flight — or, when called between runs, the next one entered — return
// err instead of ErrStopped. The first failure wins and Fail(nil) is a
// no-op. It exists for invariant checkers and similar observers: a
// failure detected inside event dispatch surfaces from RunUntil as an
// error instead of unwinding through the dispatch loop.
func (e *Engine) Fail(err error) {
	if err == nil || e.failErr != nil {
		return
	}
	e.failErr = err
	e.stopped = true
}

// FailErr reports (and clears) a pending injected failure. Run variants
// surface it automatically; only manual Step loops need it.
func (e *Engine) FailErr() error {
	err := e.failErr
	e.failErr = nil
	return err
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	if e.wheel == nil {
		return false
	}
	ev := e.wheel.pop(e.pool)
	if ev == nil {
		return false
	}
	e.dispatch(ev)
	return true
}

// dispatch advances the clock to a popped event and fires it.
func (e *Engine) dispatch(ev *Event) {
	e.now = ev.at
	if e.tlog != nil {
		e.tlog.Log(e.now, ev.name, e.wheel.live)
	}
	fn := ev.fn
	// Recycle before dispatch so fn itself (the common self-
	// rescheduling case: tickers, WiFi tails) reuses this very Event.
	// The generation bump makes any Handle still pointing here stale,
	// so Cancel-after-fire stays a no-op even across reuse.
	e.pool.put(ev)
	fn()
}

// RunUntil fires events until the clock would pass horizon, then advances
// the clock exactly to horizon. Pending events after the horizon stay
// queued. It returns ErrStopped if Stop was called mid-run.
func (e *Engine) RunUntil(horizon Time) error {
	if horizon < e.now {
		return fmt.Errorf("sim: horizon %v before now %v", horizon, e.now)
	}
	if err := e.FailErr(); err != nil {
		return err
	}
	e.stopped = false
	for !e.stopped {
		// popUntil fuses the horizon peek into the pop: one wheel scan
		// per event instead of two.
		var ev *Event
		if e.wheel != nil {
			ev = e.wheel.popUntil(horizon, e.pool)
		}
		if ev == nil {
			e.now = horizon
			return nil
		}
		e.dispatch(ev)
	}
	if err := e.FailErr(); err != nil {
		return err
	}
	return ErrStopped
}

// RunFor is RunUntil(Now+d).
func (e *Engine) RunFor(d Duration) error { return e.RunUntil(e.now.Add(d)) }

// Drain fires every pending event. It returns ErrStopped if Stop was
// called, and an error if the queue never empties within maxEvents fires
// (a guard against runaway self-rescheduling scenarios).
func (e *Engine) Drain(maxEvents int) error {
	if err := e.FailErr(); err != nil {
		return err
	}
	e.stopped = false
	for i := 0; ; i++ {
		if e.stopped {
			if err := e.FailErr(); err != nil {
				return err
			}
			return ErrStopped
		}
		if i >= maxEvents {
			return fmt.Errorf("sim: drain exceeded %d events", maxEvents)
		}
		if !e.Step() {
			return nil
		}
	}
}

// Pending reports the number of live (non-cancelled) queued events. It
// is O(1) and identical to QueueLen: the wheel reclaims cancelled
// events eagerly instead of leaving tombstones.
func (e *Engine) Pending() int { return e.QueueLen() }

func (e *Engine) peek() (Time, bool) {
	if e.wheel == nil {
		return 0, false
	}
	return e.wheel.peekMin()
}

// Recycle hands the engine's timing wheel — and every event still
// resident in it — back to the event pool. A fleet worker calls it
// after harvesting a finished device so the next device built over the
// same pool (see SetEventPool) starts with warm arenas instead of
// allocating its own. The engine must not be used afterwards: any
// outstanding Handles go stale, and a subsequent Schedule would acquire
// a fresh wheel.
func (e *Engine) Recycle() {
	w := e.wheel
	if w == nil {
		return
	}
	e.wheel = nil
	w.releaseAll(e.pool)
	e.pool.putWheel(w)
}

// Ticker repeatedly schedules a callback at a fixed period.
type Ticker struct {
	engine  *Engine
	period  Duration
	name    string
	fn      func()
	tick    func() // built once; re-arming reuses it instead of closing over a fresh closure per period
	pending Handle
	stopped bool
}

func (t *Ticker) arm() {
	if t.tick == nil {
		t.tick = func() {
			if t.stopped {
				return
			}
			t.fn()
			if !t.stopped {
				t.arm()
			}
		}
	}
	t.pending = t.engine.After(t.period, t.name, t.tick)
}

// Stop cancels future firings. Safe to call more than once.
func (t *Ticker) Stop() {
	t.stopped = true
	t.pending.Cancel()
}
