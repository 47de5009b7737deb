package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refEvent mirrors one scheduled event in the reference model.
type refEvent struct {
	at   Time
	seq  uint64
	id   int
	h    Handle
	dead bool // fired or cancelled
}

// refModel is the reference queue: every event ever scheduled, with the
// next one to fire found by a linear scan for the least (at, seq) among
// the live ones.
type refModel struct {
	events []*refEvent
	seq    uint64
	live   int
}

func (m *refModel) next() *refEvent {
	var best *refEvent
	for _, re := range m.events {
		if !re.dead && (best == nil || re.at < best.at || (re.at == best.at && re.seq < best.seq)) {
			best = re
		}
	}
	return best
}

// pick returns a uniformly chosen live event that ok accepts, or nil.
func (m *refModel) pick(rng *rand.Rand, ok func(*refEvent) bool) *refEvent {
	var chosen *refEvent
	n := 0
	for _, re := range m.events {
		if !re.dead && ok(re) {
			n++
			if rng.Intn(n) == 0 {
				chosen = re
			}
		}
	}
	return chosen
}

// TestQueueMatchesReferenceModel drives the engine with a randomized
// workload and checks every firing against a scan-based reference
// model, in lockstep. Top-level ops schedule (including at instants
// already queued, so ties are common), cancel live and stale handles,
// and advance with RunUntil, Step and Drain. A firing callback may
// cancel an event due at the same instant, cancel one due later, and
// schedule one at the current instant. QueueLen is checked after every
// op, and the depth the inline trace log records at every firing.
func TestQueueMatchesReferenceModel(t *testing.T) {
	for round := 0; round < 20; round++ {
		rng := rand.New(rand.NewSource(int64(round + 1)))
		e := NewEngine()
		tl := &TraceLog{}
		e.SetTraceLog(tl)
		m := &refModel{}
		fired := 0
		op := 0

		randomDelay := func() Duration {
			switch rng.Intn(6) {
			case 0:
				return 0
			case 1:
				return Duration(rng.Int63n(int64(20 * time.Millisecond)))
			case 2:
				return Duration(rng.Int63n(int64(4 * time.Second)))
			case 3:
				return Duration(rng.Int63n(int64(15 * time.Minute)))
			case 4:
				return Duration(rng.Int63n(int64(48 * time.Hour)))
			default:
				return Duration(3*365*24*time.Hour) + Duration(rng.Int63n(int64(24*time.Hour)))
			}
		}
		cancel := func(re *refEvent) {
			re.h.Cancel()
			if !re.dead {
				re.dead = true
				m.live--
			}
		}
		var fire func(re *refEvent)
		schedule := func(at Time) {
			re := &refEvent{at: at, seq: m.seq, id: len(m.events)}
			m.seq++
			m.live++
			m.events = append(m.events, re)
			re.h = e.Schedule(at, "ref", func() { fire(re) })
		}
		fire = func(re *refEvent) {
			if want := m.next(); want != re {
				t.Fatalf("round %d op %d: fired id %d at %v, reference fires %+v",
					round, op, re.id, e.Now(), want)
			}
			re.dead = true
			m.live--
			fired++
			if e.Now() != re.at {
				t.Fatalf("round %d op %d: id %d fired at %v, due %v", round, op, re.id, e.Now(), re.at)
			}
			if int(tl.Depth) != m.live || e.QueueLen() != m.live {
				t.Fatalf("round %d op %d: depth %d, QueueLen %d at firing, want %d",
					round, op, tl.Depth, e.QueueLen(), m.live)
			}
			now := e.Now()
			if rng.Intn(3) == 0 {
				if o := m.pick(rng, func(o *refEvent) bool { return o.at == now }); o != nil {
					cancel(o)
				}
			}
			if rng.Intn(3) == 0 {
				if o := m.pick(rng, func(o *refEvent) bool { return o.at > now }); o != nil {
					cancel(o)
				}
			}
			if rng.Intn(4) == 0 {
				schedule(now)
			}
		}

		for op = 0; op < 400; op++ {
			switch r := rng.Intn(100); {
			case r < 40:
				schedule(e.Now().Add(randomDelay()))
			case r < 50: // tie with a queued instant
				if o := m.pick(rng, func(*refEvent) bool { return true }); o != nil {
					schedule(o.at)
				}
			case r < 60:
				if o := m.pick(rng, func(*refEvent) bool { return true }); o != nil {
					cancel(o)
				}
			case r < 65: // any handle: live, fired or cancelled
				if len(m.events) > 0 {
					cancel(m.events[rng.Intn(len(m.events))])
				}
			case r < 85:
				horizon := e.Now().Add(randomDelay())
				if err := e.RunUntil(horizon); err != nil {
					t.Fatal(err)
				}
				if o := m.next(); o != nil && o.at <= horizon {
					t.Fatalf("round %d op %d: id %d due %v still queued after RunUntil(%v)",
						round, op, o.id, o.at, horizon)
				}
				if e.Now() != horizon {
					t.Fatalf("round %d op %d: Now = %v after RunUntil(%v)", round, op, e.Now(), horizon)
				}
			case r < 99:
				n, want := fired, 0
				if m.next() != nil {
					want = 1
				}
				if got := e.Step(); got != (want == 1) || fired-n != want {
					t.Fatalf("round %d op %d: Step = %v firing %d, want %d", round, op, got, fired-n, want)
				}
			default:
				if err := e.Drain(1 << 20); err != nil {
					t.Fatal(err)
				}
				if m.live != 0 {
					t.Fatalf("round %d op %d: %d events live after Drain", round, op, m.live)
				}
			}
			if got := e.QueueLen(); got != m.live {
				t.Fatalf("round %d op %d: QueueLen = %d, want %d live", round, op, got, m.live)
			}
		}
		if tl.Total != uint64(fired) {
			t.Fatalf("round %d: trace log counted %d firings, want %d", round, tl.Total, fired)
		}
	}
}
