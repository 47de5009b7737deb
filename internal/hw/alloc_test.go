package hw

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Steady-state flushes must not allocate: the interval table, the UID
// registry rows and every scratch buffer are warmed by the first flush
// and reused verbatim afterwards. This is the pin for the dense-table
// rework — a regression here is the old per-flush map churn coming back.
// It holds with a metrics-only recorder attached too: the meter feeds
// power distributions it resolved on their first observation.
func TestFlushSteadyStateAllocs(t *testing.T) {
	for _, rec := range []*telemetry.Recorder{nil, telemetry.New(telemetry.Options{EventCapacity: -1})} {
		e := sim.NewEngine()
		b, err := NewBattery(1e12)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMeter(e.Now, Nexus4(), b)
		if err != nil {
			t.Fatal(err)
		}
		m.SetTelemetry(rec)
		var sunk float64
		m.AddSink(SinkFunc(func(iv Interval) {
			iv.EachApp(func(_ app.UID, u *UsageRow) { sunk += u.Total() })
			sunk += iv.ScreenJ + iv.SystemJ
		}))
		m.SetScreen(true)
		m.SetCPUUtil(10001, 0.5)
		m.SetCPUUtil(10002, 0.25)
		if err := m.Hold(Camera, 10003); err != nil {
			t.Fatal(err)
		}

		// Warm-up: first flush grows the table, registry and scratch space.
		if err := e.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		m.Flush()

		avg := testing.AllocsPerRun(100, func() {
			if err := e.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			m.Flush()
		})
		if avg != 0 {
			t.Fatalf("steady-state flush (recorder %v) allocates %.1f objects, want 0", rec != nil, avg)
		}
		if sunk == 0 {
			t.Fatal("sink saw no energy — the flush loop measured nothing")
		}
		if rec != nil {
			if n := rec.Metrics().Histogram("hw.mw.camera", telemetry.PowerBuckets).Count(); n != 102 {
				t.Fatalf("camera power observed %d times, want 102", n)
			}
		}
	}
}

// The borrow contract: the interval handed to a sink is backed by ONE
// reused table, so a sink that retains it without Clone() watches its
// rows change under the next flush, while a Clone() stays stable.
func TestSinkRetentionRequiresClone(t *testing.T) {
	e := sim.NewEngine()
	b, err := NewBattery(1e12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeter(e.Now, Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	var borrowed, cloned Interval
	flushes := 0
	m.AddSink(SinkFunc(func(iv Interval) {
		flushes++
		if flushes == 1 {
			borrowed = iv       // violates the contract on purpose
			cloned = iv.Clone() // the sanctioned way to retain
		}
	}))

	m.SetCPUUtil(10001, 0.8)
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	firstJ := cloned.AppJ(10001)
	if firstJ <= 0 {
		t.Fatalf("clone captured no energy (%v)", firstJ)
	}
	if got := borrowed.AppJ(10001); got != firstJ {
		t.Fatalf("borrowed and clone disagree before the next flush: %v vs %v", got, firstJ)
	}

	// A different workload shape makes the next flush rewrite the shared
	// storage the borrowed interval still points at.
	m.SetCPUUtil(10001, 0.1)
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()

	if got := cloned.AppJ(10001); got != firstJ {
		t.Fatalf("clone changed after the next flush: %v vs %v", got, firstJ)
	}
	if got := borrowed.AppJ(10001); got == firstJ {
		t.Fatal("retained borrowed interval kept its values across a flush — the contract test is vacuous")
	}
}

// warmAggregator fills an aggregator with 12 entries over five UIDs
// (several keys per UID, peripheral holds, sums past 1) and runs each
// scratch buffer once, the shape of a busy population device.
func warmAggregator(t *testing.T) (*Aggregator, []*int) {
	t.Helper()
	_, _, g := aggFixture(t)
	keys := make([]*int, 12)
	for i := range keys {
		keys[i] = new(int)
		d := Demand{CPUUtil: 0.15 * float64(i%7), Camera: i == 3, GPS: i == 8}
		if err := g.Set(keys[i], app.UID(10001+i%5), d); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Audit(); err != nil {
		t.Fatal(err)
	}
	return g, keys
}

// The checker audits the aggregator on every lifecycle transition; a
// warmed audit walks reused scratch and allocates nothing.
func TestAggregatorAuditAllocatesNothing(t *testing.T) {
	g, _ := warmAggregator(t)
	avg := testing.AllocsPerRun(100, func() {
		if err := g.Audit(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Audit on a warmed 12-entry table allocates %.1f objects, want 0", avg)
	}
}

// Replacing a live key's demand (a lifecycle transition of a live
// record) re-sums its UID in reused scratch and allocates nothing.
func TestAggregatorSetLiveKeyAllocatesNothing(t *testing.T) {
	g, keys := warmAggregator(t)
	utils := [2]float64{0.2, 0.4}
	n := 0
	avg := testing.AllocsPerRun(100, func() {
		n++
		if err := g.Set(keys[5], 10001, Demand{CPUUtil: utils[n%2]}); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Set on a live key allocates %.1f objects, want 0", avg)
	}
	if err := g.Audit(); err != nil {
		t.Fatal(err)
	}
}
