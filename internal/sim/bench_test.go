package sim

import (
	"testing"
	"time"
)

// Schedule/cancel are the timing wheel's O(1) claims; these pin them
// (and their zero-alloc steady state) against the benchsuite gate. The
// mixed-horizon benchmark spreads events over all wheel levels so slot
// placement, not just the level-0 fast path, is what's measured.

func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	delays := [...]Duration{
		Duration(500 * time.Millisecond), // level 0
		Duration(90 * time.Second),       // level 1
		Duration(6 * time.Hour),          // level 2
		Duration(30 * 24 * time.Hour),    // level 3
	}
	hs := make([]Handle, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(hs) == cap(hs) {
			// Drain in bulk so the wheel never grows unboundedly; the
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
