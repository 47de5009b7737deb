package corpus

import (
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/scenario"
)

// FuzzCorpus feeds arbitrary (cell index, seed, horizon minutes) into
// the generator and replays the result on a fail-fast-checked world:
// the corpus's property — every generated script conserves energy and
// ends lifecycle-clean — must hold for ANY seed, not just the committed
// grid. Committed seeds live in testdata/fuzz/FuzzCorpus.
func FuzzCorpus(f *testing.F) {
	// One seed per variant, plus a negative-seed and an odd-horizon case.
	f.Add(uint8(0), int64(1), uint16(60))
	f.Add(uint8(1), int64(0x5eedc0de), uint16(60))
	f.Add(uint8(6), int64(-12345), uint16(75))
	f.Add(uint8(11), int64(987654321), uint16(90))
	f.Fuzz(func(t *testing.T, cellIdx uint8, seed int64, minutes uint16) {
		cells := Cells()
		cell := cells[int(cellIdx)%len(cells)]
		horizon := time.Duration(minutes) * time.Minute
		if horizon < MinHorizon {
			horizon = MinHorizon
		}
		// Cap the span so a fuzzer-chosen 65535 minutes doesn't turn one
		// case into a 45-day simulation.
		if horizon > 3*time.Hour {
			horizon = 3 * time.Hour
		}
		s, err := Generate(cell, seed, Params{Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		w, err := scenario.NewWorld(device.Config{
			EAndroid: true,
			Policy:   accounting.BatteryStats,
			Seed:     seed,
			Checks:   &check.Options{FailFast: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(w); err != nil {
			t.Fatalf("%s seed %d horizon %v: %v", cell, seed, horizon, err)
		}
		if vs := w.Dev.FinishChecks(); len(vs) > 0 {
			t.Fatalf("%s seed %d horizon %v: %d violations, first: %v",
				cell, seed, horizon, len(vs), vs[0])
		}
	})
}
