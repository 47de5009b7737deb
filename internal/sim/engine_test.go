package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(3*Second, "c", func() { got = append(got, "c") })
	e.Schedule(1*Second, "a", func() { got = append(got, "a") })
	e.Schedule(2*Second, "b", func() { got = append(got, "b") })
	if err := e.Drain(10); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*Second {
		t.Fatalf("Now() = %v, want %v", e.Now(), 3*Second)
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(Second, "tie", func() { got = append(got, i) })
	}
	if err := e.Drain(10); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Second, "x", func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(0, "past", func() {})
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	e.After(-time.Second, "neg", func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(Second, "x", func() { fired = true })
	ev.Cancel()
	if err := e.Drain(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.QueueLen() != 0 {
		t.Fatalf("QueueLen() = %d, want 0", e.QueueLen())
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1*Second, "in", func() { fired++ })
	e.Schedule(5*Second, "out", func() { fired++ })
	if err := e.RunUntil(2 * Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*Second {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	// The out-of-horizon event must still be pending and fire later.
	if err := e.RunUntil(10 * Second); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestRunUntilBackwardErrors(t *testing.T) {
	e := NewEngine()
	e.Schedule(Second, "x", func() {})
	e.Step()
	if err := e.RunUntil(0); err == nil {
		t.Fatal("expected error for backward horizon")
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine()
	if err := e.RunFor(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(90*time.Second) {
		t.Fatalf("Now() = %v", e.Now())
	}
}

func TestStopMidRun(t *testing.T) {
	e := NewEngine()
	e.Schedule(Second, "stop", func() { e.Stop() })
	e.Schedule(2*Second, "never", func() { t.Fatal("should not fire") })
	if err := e.RunUntil(10 * Second); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// Regression: Stop used to be sticky — once set, every later
// RunUntil/RunFor/Drain returned ErrStopped forever. A stop must only
// halt the run in flight; the next run call resumes.
func TestStopIsNotSticky(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(Second, "stop", func() { e.Stop() })
	e.Schedule(2*Second, "later", func() { fired++ })
	if err := e.RunUntil(10 * Second); err != ErrStopped {
		t.Fatalf("first run err = %v, want ErrStopped", err)
	}
	if err := e.RunUntil(10 * Second); err != nil {
		t.Fatalf("resumed RunUntil err = %v, want nil", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (queued event must survive the stop)", fired)
	}
	e.Schedule(11*Second, "stop2", func() { e.Stop() })
	e.Schedule(12*Second, "after-drain", func() { fired++ })
	if err := e.Drain(10); err != ErrStopped {
		t.Fatalf("drain err = %v, want ErrStopped", err)
	}
	if err := e.Drain(10); err != nil {
		t.Fatalf("resumed Drain err = %v, want nil", err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor after stop cycle err = %v", err)
	}
}

func TestDrainGuard(t *testing.T) {
	e := NewEngine()
	var reschedule func()
	reschedule = func() { e.After(time.Second, "loop", reschedule) }
	reschedule()
	if err := e.Drain(100); err == nil {
		t.Fatal("expected drain-guard error for self-rescheduling event")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	n := 0
	tk := e.Every(time.Second, "tick", func() { n++ })
	if err := e.RunUntil(Time(3500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
	tk.Stop()
	if err := e.RunUntil(10 * Second); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ticks after stop = %d, want 3", n)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(time.Second, "tick", func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	if err := e.RunUntil(10 * Second); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Every(0, "bad", func() {})
}

// TestTraceSeesEvents: the inline trace log sees every dispatched
// event in firing order, with the queue depth just after its pop.
func TestTraceSeesEvents(t *testing.T) {
	e := NewEngine()
	tl := &TraceLog{Buf: make([]TraceRecord, 4)}
	e.SetTraceLog(tl)
	e.Schedule(Second, "a", func() {})
	e.Schedule(2*Second, "b", func() {})
	if err := e.Drain(10); err != nil {
		t.Fatal(err)
	}
	recs := tl.Records()
	if len(recs) != 2 || recs[0].Name != "a" || recs[1].Name != "b" {
		t.Fatalf("trace = %+v", recs)
	}
	if recs[0].T != Time(Second) || recs[0].Depth != 1 || recs[1].Depth != 0 {
		t.Fatalf("trace = %+v, want a at T+1s depth 1, b depth 0", recs)
	}
}

func TestQueueLen(t *testing.T) {
	e := NewEngine()
	if e.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d, want 0", e.QueueLen())
	}
	e.Schedule(Second, "a", func() {})
	e.Schedule(2*Second, "b", func() {})
	if e.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", e.QueueLen())
	}
	e.Step()
	if e.QueueLen() != 1 {
		t.Fatalf("QueueLen after step = %d, want 1", e.QueueLen())
	}
}

func TestTimeHelpers(t *testing.T) {
	at := Time(90 * time.Minute)
	if at.Hours() != 1.5 {
		t.Fatalf("Hours() = %v", at.Hours())
	}
	if at.Seconds() != 5400 {
		t.Fatalf("Seconds() = %v", at.Seconds())
	}
	if got := at.Add(30 * time.Minute); got != 2*Hour {
		t.Fatalf("Add = %v", got)
	}
	if got := at.Sub(Hour); got != 30*time.Minute {
		t.Fatalf("Sub = %v", got)
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Fatal("Before/After broken")
	}
	if s := Time(time.Second).String(); s != "T+1s" {
		t.Fatalf("String() = %q", s)
	}
}

// Property: events always fire in non-decreasing timestamp order,
// whatever order they were scheduled in.
func TestPropertyMonotonicFiring(t *testing.T) {
	prop := func(offsets []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, o := range offsets {
			at := Time(time.Duration(o) * time.Millisecond)
			e.Schedule(at, "p", func() { fired = append(fired, e.Now()) })
		}
		if err := e.Drain(len(offsets) + 1); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never moves backwards across any run pattern.
func TestPropertyClockMonotonic(t *testing.T) {
	prop := func(delays []uint8) bool {
		e := NewEngine()
		last := e.Now()
		for _, d := range delays {
			e.After(time.Duration(d)*time.Millisecond, "p", func() {})
			e.Step()
			if e.Now() < last {
				return false
			}
			last = e.Now()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	fired := 0
	ev := e.Schedule(Second, "x", func() { fired++ })
	if err := e.Drain(4); err != nil {
		t.Fatal(err)
	}
	ev.Cancel() // already fired: must not panic or corrupt the queue
	e.Schedule(2*Second, "y", func() { fired++ })
	if err := e.Drain(4); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
}
