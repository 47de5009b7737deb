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

	// idx is the event's position in its engine's queue, kept current
	// by every heap move so Cancel can remove it without a search.
	idx int32
	// gen increments every time the event returns to its pool; a Handle
	// captured before that no longer matches and turns into a no-op.
	gen uint32
}

// Handle refers to a scheduled event. The zero Handle is valid and
// refers to nothing. Handles stay safe after their event fires: the
// event's recycle bumps its generation, so a stale Handle's Cancel
// cannot touch whatever the pooled Event was reused for.
type Handle struct {
	eng *Engine
	ev  *Event
	gen uint32
}

// Scheduled reports whether the event is still queued to fire. An
// event leaves the queue only by firing, by Cancel or by Recycle, and
// each returns it to the pool at once, which bumps its generation; so
// the handle's event is queued exactly while the generations match.
func (h Handle) Scheduled() bool { return h.ev != nil && h.ev.gen == h.gen }

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was already cancelled, or an empty handle) is a
// no-op. The event leaves the queue and returns to the pool at once, so
// QueueLen drops right away.
func (h Handle) Cancel() {
	if h.Scheduled() {
		h.eng.remove(int(h.ev.idx))
		h.eng.pool.put(h.ev)
	}
}

// EventPool recycles Event allocations. Every engine owns one by
// default; sequential engines (a fleet worker running one device after
// another) can share a single pool via SetEventPool so each device
// reuses the Events its predecessors fired, cancelled or handed back
// through Recycle instead of allocating fresh ones for the GC to sweep.
// A pool is single-goroutine, like the engines it feeds.
type EventPool struct {
	free []*Event
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
	return &Event{}
}

func (p *EventPool) put(ev *Event) {
	ev.gen++
	ev.fn = nil // release the closure now, not at next reuse
	ev.name = ""
	p.free = append(p.free, ev)
}

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use: the simulated device is single-threaded by design, which
// is what makes runs reproducible.
type Engine struct {
	now Time
	// queue holds the pending events as a binary min-heap ordered by
	// (at, seq); see before.
	queue   []*Event
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

// QueueLen reports the number of queued events. Cancelled events leave
// the queue at once, so none are counted.
func (e *Engine) QueueLen() int { return len(e.queue) }

// Schedule queues fn to run at instant at. Scheduling in the past (before
// Now) panics: it always indicates a scenario bug, and silently clamping
// would corrupt energy integration. The returned Handle cancels the
// pending event; it goes stale (harmlessly) once the event fires and
// its pooled Event is recycled.
func (e *Engine) Schedule(at Time, name string, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", name, at, e.now))
	}
	ev := e.pool.get()
	ev.at, ev.seq, ev.name, ev.fn = at, e.seq, name, fn
	e.seq++
	e.queue = append(e.queue, ev)
	e.up(len(e.queue) - 1)
	return Handle{eng: e, ev: ev, gen: ev.gen}
}

// before is the queue order: time first, then scheduling order. seq is
// unique per engine, so the order is total and the heap's pops follow
// it exactly.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// up moves the event at queue position i toward the root until its
// parent comes before it.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].idx = int32(i)
		i = p
	}
	q[i] = ev
	ev.idx = int32(i)
}

// down moves the event at queue position i toward the leaves until no
// child comes before it, and reports whether it moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	ev := q[i]
	start := i
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], ev) {
			break
		}
		q[i] = q[c]
		q[i].idx = int32(i)
		i = c
	}
	q[i] = ev
	ev.idx = int32(i)
	return i > start
}

// remove takes the event at queue position i out of the heap and
// returns it; the queue's last event fills the gap and sifts to its
// place.
func (e *Engine) remove(i int) *Event {
	q := e.queue
	ev := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if i < n {
		q[i] = last
		if !e.down(i) {
			e.up(i)
		}
	}
	return ev
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
	if len(e.queue) == 0 {
		return false
	}
	e.dispatch()
	return true
}

// dispatch pops the earliest queued event, advances the clock to it
// and fires it. The queue must not be empty.
func (e *Engine) dispatch() {
	ev := e.remove(0)
	e.now = ev.at
	if e.tlog != nil {
		e.tlog.Log(e.now, ev.name, len(e.queue))
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
		if len(e.queue) == 0 || e.queue[0].at > horizon {
			e.now = horizon
			return nil
		}
		e.dispatch()
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

// Recycle hands every event still queued back to the event pool. A
// fleet worker calls it after harvesting a finished device so the next
// device built over the same pool (see SetEventPool) reuses those
// Events instead of allocating its own. The engine must not be used
// afterwards: any outstanding Handles go stale.
func (e *Engine) Recycle() {
	for _, ev := range e.queue {
		e.pool.put(ev)
	}
	e.queue = nil
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
