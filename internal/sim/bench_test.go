package sim

import (
	"testing"
	"time"
)

// Schedule and Cancel priced against a queue of up to 4,096 live events
// spread over four horizons, from half a second to a month. No gate
// reads these numbers; `make bench` and CI's benchmark step print them.
// The measured workloads leave at most three events pending when one
// fires (DESIGN.md, "Event-queue determinism"), so this depth prices
// the heap's sifts far deeper than any device runs them.

func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	delays := [...]Duration{
		Duration(500 * time.Millisecond),
		Duration(90 * time.Second),
		Duration(6 * time.Hour),
		Duration(30 * 24 * time.Hour),
	}
	hs := make([]Handle, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(hs) == cap(hs) {
			// Drain in bulk so the queue never grows unboundedly; the
			// cancels are costed against the Cancel benchmark below.
			b.StopTimer()
			for _, h := range hs {
				h.Cancel()
			}
			hs = hs[:0]
			b.StartTimer()
		}
		hs = append(hs, e.Schedule(e.Now().Add(delays[i&3]), "ev", func() {}))
	}
}

func BenchmarkCancel(b *testing.B) {
	e := NewEngine()
	delays := [...]Duration{
		Duration(500 * time.Millisecond),
		Duration(90 * time.Second),
		Duration(6 * time.Hour),
		Duration(30 * 24 * time.Hour),
	}
	hs := make([]Handle, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(hs) {
		b.StopTimer()
		hs = hs[:0]
		n := cap(hs)
		if rem := b.N - i; rem < n {
			n = rem
		}
		if n == 0 {
			break
		}
		for j := 0; j < n; j++ {
			hs = append(hs, e.Schedule(e.Now().Add(delays[j&3]), "ev", func() {}))
		}
		b.StartTimer()
		for _, h := range hs {
			h.Cancel()
		}
	}
}
