package sim

import (
	"testing"
	"time"
)

// TestFarFutureEventFiresOnTime checks that an event years ahead
// stays queued and fires at its exact instant.
func TestFarFutureEventFiresOnTime(t *testing.T) {
	e := NewEngine()
	far := 3 * 365 * 24 * time.Hour
	fired := Time(0)
	e.After(Duration(far), "far", func() { fired = e.Now() })
	if n := e.QueueLen(); n != 1 {
		t.Fatalf("QueueLen = %d, want 1", n)
	}
	if err := e.RunFor(Duration(far)); err != nil {
		t.Fatal(err)
	}
	if want := Time(0).Add(Duration(far)); fired != want {
		t.Fatalf("far event fired at %v, want %v", fired, want)
	}
}

// TestOverflowReDealPreservesOrder schedules a cluster of far-future
// events in scrambled order plus a near one, and checks that they fire
// in time order.
func TestOverflowReDealPreservesOrder(t *testing.T) {
	e := NewEngine()
	year := 365 * 24 * time.Hour
	var got []int
	note := func(id int) func() { return func() { got = append(got, id) } }
	e.After(Duration(3*year+2*time.Hour), "c", note(2))
	e.After(Duration(3*year), "a", note(0))
	e.After(Duration(3*year+time.Hour), "b", note(1))
	e.After(Duration(time.Second), "near", note(9))
	if err := e.RunFor(Duration(4 * year)); err != nil {
		t.Fatal(err)
	}
	want := []int{9, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestTickerSpansWheelRollover runs a one-second ticker for ten
// minutes and checks that no tick is lost or displaced.
func TestTickerSpansWheelRollover(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var last Time
	e.Every(time.Second, "tick", func() {
		ticks++
		now := e.Now()
		if last != 0 && now.Sub(last) != Duration(time.Second) {
			t.Fatalf("tick gap %v at %v, want 1s", now.Sub(last), now)
		}
		last = now
	})
	if err := e.RunFor(Duration(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if ticks != 600 {
		t.Fatalf("ticker fired %d times in 10min, want 600", ticks)
	}
}

// TestScheduleBehindAdvancedCursorStillFires runs to a horizon short of
// the only queued event, then schedules an earlier one: it must fire
// first, on time.
func TestScheduleBehindAdvancedCursorStillFires(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(Duration(26*time.Hour), "far", func() { got = append(got, 1) })
	if err := e.RunFor(Duration(time.Second)); err != nil {
		t.Fatal(err)
	}
	firedAt := Time(0)
	e.After(Duration(time.Minute), "near", func() {
		got = append(got, 0)
		firedAt = e.Now()
	})
	if err := e.RunFor(Duration(48 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("dispatch order %v, want [0 1]", got)
	}
	if want := Time(0).Add(Duration(time.Second + time.Minute)); firedAt != want {
		t.Fatalf("near event fired at %v, want %v", firedAt, want)
	}
}

// TestCancelReclaimsWheelSlot checks that a cancel takes its event out
// of the queue at once: QueueLen and Scheduled count only live events
// throughout.
func TestCancelReclaimsWheelSlot(t *testing.T) {
	e := NewEngine()
	var hs []Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, e.After(Duration(time.Duration(i+1)*time.Minute), "ev", func() {}))
	}
	if e.QueueLen() != 100 {
		t.Fatalf("QueueLen=%d, want 100", e.QueueLen())
	}
	for i, h := range hs {
		if i%2 == 0 {
			h.Cancel()
		}
	}
	if e.QueueLen() != 50 {
		t.Fatalf("after cancels QueueLen=%d, want 50", e.QueueLen())
	}
	scheduled := 0
	for _, h := range hs {
		if h.Scheduled() {
			scheduled++
		}
	}
	if scheduled != 50 {
		t.Fatalf("%d handles still scheduled, want 50", scheduled)
	}
	if err := e.RunFor(Duration(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if e.QueueLen() != 0 {
		t.Fatalf("after run QueueLen=%d, want 0", e.QueueLen())
	}
}

// TestCancelAfterFireAcrossSlotReuse checks handle staleness over
// Event reuse: after an event fires, its Event carries a new
// event at the same relative delay; the old handle's Cancel must not
// touch the new occupant.
func TestCancelAfterFireAcrossSlotReuse(t *testing.T) {
	e := NewEngine()
	h1 := e.After(Duration(time.Second), "first", func() {})
	if err := e.RunFor(Duration(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Same relative delay: reuses h1's Event (LIFO free list).
	fired := false
	h2 := e.After(Duration(time.Second), "second", func() { fired = true })
	if h2.ev != h1.ev {
		t.Fatalf("free list did not hand back the fired event")
	}
	h1.Cancel() // stale: must be a no-op
	if !h2.Scheduled() {
		t.Fatal("stale Cancel unscheduled the new event")
	}
	if err := e.RunFor(Duration(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("reused event did not fire")
	}
}

// TestScheduleCancelSteadyStateAllocs guards the zero-alloc contract:
// once the free list and the queue are warm, a schedule/cancel pair
// allocates nothing.
func TestScheduleCancelSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	// Warm the free list and the queue.
	for i := 0; i < 8; i++ {
		e.After(Duration(time.Duration(i+1)*time.Second), "warm", func() {}).Cancel()
	}
	avg := testing.AllocsPerRun(200, func() {
		h := e.After(Duration(90*time.Second), "probe", func() {})
		h.Cancel()
	})
	if avg != 0 {
		t.Fatalf("schedule/cancel allocates %.1f objects, want 0", avg)
	}
}
