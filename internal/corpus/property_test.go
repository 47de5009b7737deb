package corpus

import (
	"testing"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/scenario"
)

// replayScript builds a fresh fail-fast-checked world and applies the
// script: any conservation or lifecycle violation surfaces as an engine
// error mid-Apply, and FinishChecks sweeps the end-of-run invariants
// (nothing left running, aggregates consistent).
func replayScript(t *testing.T, s *Script) {
	t.Helper()
	w, err := scenario.NewWorld(device.Config{
		EAndroid: true,
		Policy:   accounting.BatteryStats,
		Seed:     s.Seed,
		Checks:   &check.Options{FailFast: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(w); err != nil {
		t.Fatalf("%s seed %d: %v", s.Cell, s.Seed, err)
	}
	if vs := w.Dev.FinishChecks(); len(vs) > 0 {
		t.Fatalf("%s seed %d: %d invariant violations, first: %v",
			s.Cell, s.Seed, len(vs), vs[0])
	}
}

// TestCorpusConservesInvariants is the property test behind the corpus:
// EVERY generated scenario — all 16 cells, several seeds each — must
// replay to completion on a fail-fast-checked device with zero
// violations. Energy conservation and lifecycle cleanliness are not
// sampled claims here; they hold for the whole committed grid.
func TestCorpusConservesInvariants(t *testing.T) {
	seeds := []int64{1, 0x5eedc0de, -7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cell := range Cells() {
		for _, seed := range seeds {
			s, err := Generate(cell, seed, Params{Horizon: MinHorizon})
			if err != nil {
				t.Fatal(err)
			}
			replayScript(t, s)
		}
	}
}

// TestCorpusFullHorizonSpot replays one benign and one attack cell at
// the full default horizon — the exact shape the committed BENCH
// artifact uses — so horizon-dependent drift (charge-window placement,
// overlay clamping) cannot hide behind the short-horizon grid above.
func TestCorpusFullHorizonSpot(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon replay")
	}
	for _, cell := range []Cell{
		{Archetype: ArchCommuter, Variant: VarBenign},
		{Archetype: ArchIdleMostly, Variant: VarChargingAware},
	} {
		s, err := Generate(cell, 0x5eedc0de, Params{})
		if err != nil {
			t.Fatal(err)
		}
		replayScript(t, s)
	}
}
