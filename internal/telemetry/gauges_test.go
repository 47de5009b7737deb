package telemetry

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func gaugeValue(t *testing.T, m *Metrics, name string) float64 {
	t.Helper()
	for _, g := range m.Gauges() {
		if g.Name() == name {
			return g.Value()
		}
	}
	t.Fatalf("gauge %q not in the registry", name)
	return 0
}

// TestDroppedAndCapacityGauges: ring overflow must be visible from the
// metrics surface alone (the obsv /metrics endpoint), not only via the
// Dropped() accessor.
func TestDroppedAndCapacityGauges(t *testing.T) {
	r := New(Options{EventCapacity: 4})
	for i := 0; i < 7; i++ {
		r.RecordSimEvent(sim.Time(i), fmt.Sprintf("e%d", i), i)
	}
	s := r.Metrics()
	if got := gaugeValue(t, s, "telemetry.ring_capacity"); got != 4 {
		t.Fatalf("ring_capacity = %v, want 4", got)
	}
	if got := gaugeValue(t, s, "telemetry.events_dropped"); got != 3 {
		t.Fatalf("events_dropped = %v, want 3 (7 recorded into a 4-ring)", got)
	}
	if r.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", r.Dropped())
	}

	// More overflow moves the gauge on the next read.
	r.RecordSimEvent(sim.Time(7), "e7", 7)
	s = r.Metrics()
	if got := gaugeValue(t, s, "telemetry.events_dropped"); got != 4 {
		t.Fatalf("events_dropped after one more = %v, want 4", got)
	}
}

func hasGauge(m *Metrics, name string) bool {
	for _, g := range m.Gauges() {
		if g.Name() == name {
			return true
		}
	}
	return false
}

// TestDisabledRingGauges: a metrics-only recorder (negative capacity)
// keeps no ring, so it reports no ring series and overwrote nothing —
// a fleet of untraced devices must not claim thousands of "dropped"
// events that nobody asked to keep.
func TestDisabledRingGauges(t *testing.T) {
	r := New(Options{EventCapacity: -1})
	r.RecordSimEvent(0, "e", 0)
	r.RecordBattery(0, 1, 99)
	s := r.Metrics()
	for _, name := range []string{"telemetry.ring_capacity", "telemetry.events_dropped"} {
		if hasGauge(s, name) {
			t.Fatalf("metrics-only recorder reports %s", name)
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0 (nothing kept, nothing overwritten)", r.Dropped())
	}
	if r.Total() != 2 {
		t.Fatalf("Total() = %d, want 2 (metrics still count every event)", r.Total())
	}
}

// feedFirings records n kernel firings in same-instant runs of 1..7
// plus a general event every 100 firings, the same way on every
// recorder it is given.
func feedFirings(n int, recs ...*Recorder) {
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		if i%7 == 0 {
			t += sim.Second
		}
		for _, r := range recs {
			r.RecordSimEvent(t, "e", i%5)
			if i%100 == 0 {
				r.RecordBattery(t, 0.1, 90)
			}
		}
	}
}

// TestKernelLogOnlyRecorder: KeepKernelLog gives a metrics-only
// recorder the kernel log a traced fleet device folds its batch spans
// from, and nothing else. Its gauges describe that log, and it yields
// the same batches as a full recorder fed the same firings.
func TestKernelLogOnlyRecorder(t *testing.T) {
	const firings = DefaultEventCapacity + 1000
	logOnly := New(Options{EventCapacity: -1})
	logOnly.KeepKernelLog()
	full := New(Options{})
	feedFirings(firings, logOnly, full)

	s := logOnly.Metrics()
	if got := gaugeValue(t, s, "telemetry.ring_capacity"); got != DefaultEventCapacity {
		t.Fatalf("ring_capacity = %v, want %d", got, DefaultEventCapacity)
	}
	if got := gaugeValue(t, s, "telemetry.events_dropped"); got != 1000 {
		t.Fatalf("events_dropped = %v, want 1000 (the firings the log overwrote)", got)
	}
	if logOnly.Dropped() != 1000 || full.Dropped() != 1000 {
		t.Fatalf("Dropped() = %d (log only), %d (full), want 1000 each", logOnly.Dropped(), full.Dropped())
	}
	if n := len(logOnly.Events()); n != DefaultEventCapacity {
		t.Fatalf("log-only recorder retained %d events, want its %d kernel records", n, DefaultEventCapacity)
	}

	batches := func(r *Recorder) []KernelBatch {
		var out []KernelBatch
		r.ForEachKernelBatch(func(b KernelBatch) { out = append(out, b) })
		return out
	}
	got, want := batches(logOnly), batches(full)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("log-only recorder yields %d batches, full recorder %d; they differ", len(got), len(want))
	}

	// A second call, or one on a recorder that has its rings, keeps
	// the log it has.
	logOnly.KeepKernelLog()
	full.KeepKernelLog()
	if !reflect.DeepEqual(batches(logOnly), want) || !reflect.DeepEqual(batches(full), want) {
		t.Fatal("KeepKernelLog on a recorder with a log replaced it")
	}

	// Released, the log stops retaining; the gauges still describe the
	// log the recorder kept. A full recorder's rings are not lent, so
	// releasing one changes nothing.
	logOnly.ReleaseKernelLog()
	full.ReleaseKernelLog()
	logOnly.RecordSimEvent(0, "late", 0)
	s = logOnly.Metrics()
	if got := gaugeValue(t, s, "telemetry.ring_capacity"); got != DefaultEventCapacity {
		t.Fatalf("released ring_capacity = %v, want %d", got, DefaultEventCapacity)
	}
	if got := gaugeValue(t, s, "telemetry.events_dropped"); got != 1001 {
		t.Fatalf("released events_dropped = %v, want 1001", got)
	}
	if batches(logOnly) != nil || !reflect.DeepEqual(batches(full), want) {
		t.Fatal("release kept the lent log or dropped a full recorder's")
	}

	// The next log may be the released one: only what it records
	// shows, never what the last device left in it.
	next, fresh := New(Options{EventCapacity: -1}), New(Options{})
	next.KeepKernelLog()
	feedFirings(20, next, fresh)
	if got, want := batches(next), batches(fresh); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("reused log yields %v, want %v", got, want)
	}
}
