package sim

import (
	"testing"
	"time"
)

// A fired event's storage returns to the pool and the next Schedule
// reuses it; the handle from the first schedule must have gone stale so
// its Cancel cannot reach the recycled event.
func TestHandleStaleAfterFireDoesNotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	h1 := e.After(time.Second, "first", func() { fired++ })
	if !h1.Scheduled() {
		t.Fatal("fresh handle should report scheduled")
	}
	if err := e.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if h1.Scheduled() {
		t.Fatal("handle should be stale after its event fired")
	}

	h2 := e.After(time.Second, "second", func() { fired++ })
	if h2.ev != h1.ev {
		t.Fatal("pool should recycle the fired event's storage (LIFO)")
	}
	h1.Cancel() // stale: must not touch the recycled event
	if !h2.Scheduled() {
		t.Fatal("stale Cancel reached the recycled event")
	}
	if err := e.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestCancelledEventRecyclesThroughPool(t *testing.T) {
	e := NewEngine()
	h := e.After(time.Second, "doomed", func() { t.Fatal("cancelled event fired") })
	h.Cancel()
	if h.Scheduled() {
		t.Fatal("cancelled handle should not report scheduled")
	}
	if err := e.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(e.pool.free) == 0 {
		t.Fatal("cancelled event never returned to the pool")
	}
	// Cancelling again after recycling stays a no-op.
	h.Cancel()
}

// A shared pool moved between sequentially-run engines (the fleet
// worker pattern) hands each engine its predecessor's arena.
func TestEventPoolSharedAcrossSequentialEngines(t *testing.T) {
	pool := NewEventPool()
	for run := 0; run < 3; run++ {
		e := NewEngine()
		e.SetEventPool(pool)
		ticks := 0
		tk := e.Every(time.Second, "tick", func() { ticks++ })
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		tk.Stop()
		if err := e.Drain(100); err != nil {
			t.Fatal(err)
		}
		if ticks != 10 {
			t.Fatalf("run %d: ticks = %d, want 10", run, ticks)
		}
	}
	if len(pool.free) == 0 {
		t.Fatal("shared pool should hold recycled events between runs")
	}
}

// The engine's event loop must not allocate per tick once the ticker's
// closure and its pooled Event exist: the self-rescheduling path reuses
// the Event it just popped.
func TestTickerSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	tk := e.Every(time.Second, "tick", func() { n++ })
	defer tk.Stop()
	if err := e.RunFor(time.Second); err != nil { // warm-up: builds the tick closure
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := e.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("ticker steady state allocates %.1f objects per period, want 0", avg)
	}
}
