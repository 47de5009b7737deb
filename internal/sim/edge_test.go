package sim

import (
	"testing"
	"time"
)

// TestEngineEdgeCases is the table-driven sweep of the kernel's corner
// semantics: each case scripts an engine and checks the invariant the
// rest of the stack relies on.
func TestEngineEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{
			// A ticker stopped from inside its own callback must not
			// re-arm, and its cancelled pending event must not count as
			// live work.
			name: "ticker stop from inside own callback",
			run: func(t *testing.T) {
				e := NewEngine()
				n := 0
				var tk *Ticker
				tk = e.Every(time.Second, "tick", func() {
					n++
					tk.Stop()
				})
				if err := e.RunUntil(10 * Second); err != nil {
					t.Fatal(err)
				}
				if n != 1 {
					t.Fatalf("ticks = %d, want 1", n)
				}
				if got := e.Pending(); got != 0 {
					t.Fatalf("Pending() = %d, want 0 after in-callback stop", got)
				}
			},
		},
		{
			// Cancelling an event that already fired is a no-op: no
			// panic, no heap corruption, later events unaffected.
			name: "cancel of an already-fired event",
			run: func(t *testing.T) {
				e := NewEngine()
				fired := 0
				ev := e.Schedule(Second, "first", func() { fired++ })
				if !e.Step() {
					t.Fatal("Step() found no event")
				}
				ev.Cancel()
				ev.Cancel() // double-cancel must also be safe
				e.Schedule(2*Second, "second", func() { fired++ })
				if err := e.Drain(4); err != nil {
					t.Fatal(err)
				}
				if fired != 2 {
					t.Fatalf("fired = %d, want 2", fired)
				}
			},
		},
		{
			// Drain empties the queue completely; Pending must read 0
			// and another Drain must be an immediate no-op.
			name: "pending after drain",
			run: func(t *testing.T) {
				e := NewEngine()
				for i := 1; i <= 5; i++ {
					e.Schedule(Time(i)*Second, "x", func() {})
				}
				e.Schedule(6*Second, "cancelled", func() {}).Cancel()
				if err := e.Drain(10); err != nil {
					t.Fatal(err)
				}
				if got := e.Pending(); got != 0 {
					t.Fatalf("Pending() = %d, want 0", got)
				}
				if err := e.Drain(10); err != nil {
					t.Fatalf("second Drain err = %v", err)
				}
				if e.Now() != 5*Second {
					t.Fatalf("Now() = %v, want 5s (cancelled tail must not advance the clock)", e.Now())
				}
			},
		},
		{
			// An event scheduled exactly at the horizon fires within
			// RunUntil(horizon): the horizon is inclusive, and the
			// clock lands exactly on it either way.
			name: "schedule exactly at the horizon",
			run: func(t *testing.T) {
				e := NewEngine()
				fired := false
				e.Schedule(5*Second, "at-horizon", func() { fired = true })
				if err := e.RunUntil(5 * Second); err != nil {
					t.Fatal(err)
				}
				if !fired {
					t.Fatal("event at the horizon did not fire")
				}
				if e.Now() != 5*Second {
					t.Fatalf("Now() = %v, want 5s", e.Now())
				}
				// One tick past the horizon must stay queued.
				stayed := false
				e.Schedule(5*Second+1, "past", func() { stayed = true })
				if err := e.RunUntil(5 * Second); err != nil {
					t.Fatal(err)
				}
				if stayed {
					t.Fatal("event past the horizon fired early")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t) })
	}
}
