package sim

import (
	"testing"
	"time"
)

// TestFarFutureEventLandsInOverflow checks that an event beyond the
// top wheel level's span parks in the overflow list and still fires at
// the right instant once the cursor gets there.
func TestFarFutureEventLandsInOverflow(t *testing.T) {
	e := NewEngine()
	far := 3 * 365 * 24 * time.Hour // ~3 years, past the level-3 window
	fired := Time(0)
	e.After(Duration(far), "far", func() { fired = e.Now() })
	if n := len(e.wheel.overflow); n != 1 {
		t.Fatalf("overflow holds %d events, want 1", n)
	}
	if err := e.RunFor(Duration(far)); err != nil {
		t.Fatal(err)
	}
	if want := Time(0).Add(Duration(far)); fired != want {
		t.Fatalf("far event fired at %v, want %v", fired, want)
	}
}

// TestOverflowReDealPreservesOrder schedules a cluster of far-future
// events in scrambled order plus a near one, and checks global (at,
// seq) dispatch order across the overflow re-deal.
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

// TestTickerSpansWheelRollover runs a one-second ticker long enough to
// wrap level 0 many times and cross a level-1 slot boundary, checking
// that no tick is lost or displaced.
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
	// Level 0 spans ~4.3s; 10 minutes crosses it ~140 times and the
	// level-1 slot boundary as well.
	if err := e.RunFor(Duration(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if ticks != 600 {
		t.Fatalf("ticker fired %d times in 10min, want 600", ticks)
	}
}

// TestScheduleBehindAdvancedCursorStillFires reproduces the probe-ahead
// hazard: running to a horizon with only a far event leaves the wheel
// cursor parked at that event's granule (the event waits in the batch).
// An event then scheduled for an earlier granule must not be filed
// behind the cursor's scan position — it fires first, on time.
func TestScheduleBehindAdvancedCursorStillFires(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(Duration(26*time.Hour), "far", func() { got = append(got, 1) })
	// Probe: nothing due, but the cursor advances to the 26h granule.
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

// TestCancelReclaimsWheelSlot checks the cancelled-event retention fix:
// cancelling a wheel-resident event frees its slot entry immediately
// (no tombstone waiting to be popped), and QueueLen and Pending agree
// on the live count throughout.
func TestCancelReclaimsWheelSlot(t *testing.T) {
	e := NewEngine()
	var hs []Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, e.After(Duration(time.Duration(i+1)*time.Minute), "ev", func() {}))
	}
	if e.QueueLen() != 100 || e.Pending() != 100 {
		t.Fatalf("QueueLen=%d Pending=%d, want 100/100", e.QueueLen(), e.Pending())
	}
	for i, h := range hs {
		if i%2 == 0 {
			h.Cancel()
		}
	}
	if e.QueueLen() != 50 || e.Pending() != 50 {
		t.Fatalf("after cancels QueueLen=%d Pending=%d, want 50/50", e.QueueLen(), e.Pending())
	}
	// The cancelled events' slot entries are gone, not tombstoned: the
	// total number of events resident in wheel slots matches the live
	// count.
	resident := 0
	for l := 0; l < wheelLevels; l++ {
		for s := 0; s < wheelSlots; s++ {
			resident += len(e.wheel.slots[l][s])
		}
	}
	resident += len(e.wheel.batch) - e.wheel.batchIdx + len(e.wheel.overflow)
	if resident != 50 {
		t.Fatalf("wheel holds %d resident events after cancels, want 50", resident)
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
	if e.QueueLen() != 0 || e.Pending() != 0 {
		t.Fatalf("after run QueueLen=%d Pending=%d, want 0/0", e.QueueLen(), e.Pending())
	}
}

// TestCancelAfterFireAcrossSlotReuse checks handle staleness over slot
// reuse: after an event fires, its pooled Event is reused by a new
// event that lands in the same wheel slot; the old handle's Cancel must
// not touch the new occupant.
func TestCancelAfterFireAcrossSlotReuse(t *testing.T) {
	e := NewEngine()
	h1 := e.After(Duration(time.Second), "first", func() {})
	if err := e.RunFor(Duration(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Same relative delay: reuses h1's Event (LIFO pool) and, with the
	// clock at 2s, a fresh wheel slot.
	fired := false
	h2 := e.After(Duration(time.Second), "second", func() { fired = true })
	if h2.ev != h1.ev {
		t.Fatalf("pool did not reuse the fired event")
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
// once the pool and wheel arenas are warm, a schedule/cancel pair
// allocates nothing.
func TestScheduleCancelSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	// Warm the pool and the slots the loop will touch.
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
