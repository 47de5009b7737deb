package trace

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refLess is the order the span store's sort fallback used: virtual
// start, then span ID. Total, since span IDs are unique.
func refLess(a, b *Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ID < b.ID
}

// TestPhaseMergeMatchesSortReference: three monotone phase streams,
// appended interleaved the way a traced device appends them (meter
// flushes and watchdog windows mixed, watchdog windows filed long after
// their start, then the whole kernel-batch stream at the end), with
// starts shared across streams and more phases than the buffer keeps,
// assemble to exactly every kept phase sorted by start and then ID.
func TestPhaseMergeMatchesSortReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New("merge-ref", "POST /jobs", Config{SampleRate: 1})
		ft := tr.Fleet(1)
		dt := ft.Device(0)
		var want []Span
		var seq uint64
		emit := func(p Phase, start int64) {
			end := start + int64(rng.Intn(40))
			n := float64(rng.Intn(5))
			dt.Phase(p, sim.Time(start), sim.Time(end), n)
			if len(want) < DefaultMaxSpansPerDevice {
				want = append(want, Span{
					ID: Derive(dt.id, seq), Parent: dt.id, Kind: KindPhase,
					Name: p.String(), Dev: 0, Start: start, End: end, N: n,
				})
				seq++
			}
		}
		// Starts advance in small integer steps, so the streams share
		// many starts; each stream's own starts strictly increase.
		var meter, window int64
		for meter < 12000 {
			if rng.Intn(8) == 0 {
				window += 1 + int64(rng.Intn(16))
				emit(PhaseWatchdogWindow, window)
			} else {
				meter += 1 + int64(rng.Intn(2))
				emit(PhaseMeterFlush, meter)
			}
		}
		var batch int64
		for batch < 12000 {
			batch += 1 + int64(rng.Intn(2))
			emit(PhaseKernelBatch, batch)
		}
		ft.Finish(0, dt, sim.Time(12100))
		if dt.Dropped() == 0 {
			t.Fatalf("seed %d: the buffer cap was never reached", seed)
		}
		sort.Slice(want, func(i, j int) bool { return refLess(&want[i], &want[j]) })
		var got []Span
		for _, sp := range tr.Spans() {
			if sp.Kind == KindPhase {
				got = append(got, sp)
			}
		}
		if !slices.Equal(got, want) {
			for k := range min(len(got), len(want)) {
				if got[k] != want[k] {
					t.Fatalf("seed %d: span %d = %+v, sort reference %+v", seed, k, got[k], want[k])
				}
			}
			t.Fatalf("seed %d: %d phase spans, sort reference %d", seed, len(got), len(want))
		}
	}
}
