package replay

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// smokeOpts is the two-cell, few-rep configuration the CI smoke target
// also uses: one benign and one attack cell, short horizon.
func smokeOpts(workers int) Options {
	return Options{
		RootSeed: 0x5eedc0de,
		Reps:     3,
		Workers:  workers,
		Horizon:  corpus.MinHorizon,
		Cells: []corpus.Cell{
			{Archetype: corpus.ArchCommuter, Variant: corpus.VarBenign},
			{Archetype: corpus.ArchCommuter, Variant: corpus.VarIntermittent},
		},
	}
}

// TestReplayGoldenDeterminism is the corpus's determinism contract:
// the replay summary — render and serialized cells — must be
// byte-identical across fleet worker counts (1 vs 8) and across two
// same-seed runs. Any nondeterminism in generation, application or
// aggregation shows up here as a diff.
func TestReplayGoldenDeterminism(t *testing.T) {
	ctx := context.Background()
	r1, err := Run(ctx, smokeOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(ctx, smokeOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(ctx, smokeOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := r1.MarshalCells()
	if err != nil {
		t.Fatal(err)
	}
	j8, _ := r8.MarshalCells()
	jAgain, _ := again.MarshalCells()
	if string(j1) != string(j8) {
		t.Errorf("cell summaries differ between 1 and 8 workers:\n%s\nvs\n%s", j1, j8)
	}
	if string(j1) != string(jAgain) {
		t.Errorf("cell summaries differ between two same-seed runs:\n%s\nvs\n%s", j1, jAgain)
	}
	if r1.Render() != r8.Render() {
		t.Error("rendered summaries differ between 1 and 8 workers")
	}
	if r1.Render() != again.Render() {
		t.Error("rendered summaries differ between two same-seed runs")
	}
}

// TestCellReplaysAloneAsInGrid: a cell's scripts are seeded by its
// index in corpus.Cells(), not by its position in Options.Cells, so a
// one-cell replay (what a corpus job runs) and a subset in any order
// give each cell the CellResult it has in the full grid.
func TestCellReplaysAloneAsInGrid(t *testing.T) {
	ctx := context.Background()
	opts := Options{RootSeed: 7, Reps: 2, Horizon: corpus.MinHorizon}
	full, err := Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := corpus.Cells()
	for _, subset := range [][]int{{5}, {len(cells) - 1}, {12, 3}} {
		opts.Cells = nil
		for _, ci := range subset {
			opts.Cells = append(opts.Cells, cells[ci])
		}
		res, err := Run(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, ci := range subset {
			if got, want := res.Cells[k], full.Cells[ci]; !reflect.DeepEqual(got, want) {
				t.Errorf("cell %s replayed in %v: %d windows judged, %.1f J mean drain; in the full grid %d, %.1f J",
					cells[ci], opts.Cells, got.JudgedWindows, got.MeanDrainedJ, want.JudgedWindows, want.MeanDrainedJ)
			}
		}
	}

	opts.Cells = []corpus.Cell{{Archetype: corpus.ArchGamer, Variant: "no-such-variant"}}
	if _, err := Run(ctx, opts); err == nil {
		t.Error("a cell outside the corpus grid replayed; it has no seed chain")
	}
}

// TestReplaySeparationSmoke checks the watchdog separates the smoke
// cells even at smoke scale: the benign cell must be spotless (no
// flagged windows, no accusations) and the attack cell fully detected.
// The committed full-scale artifact makes the statistical claim; this
// pins the mechanism in the ordinary test suite.
func TestReplaySeparationSmoke(t *testing.T) {
	res, err := Run(context.Background(), smokeOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	benign, attack := res.Cells[0], res.Cells[1]
	if !benign.Benign || attack.Benign {
		t.Fatalf("cell order: got %s, %s", benign.Cell, attack.Cell)
	}
	if benign.DetectedRuns != 0 {
		t.Errorf("benign cell accused the malware in %d/%d runs", benign.DetectedRuns, benign.Reps)
	}
	if benign.FlaggedWindows != 0 {
		t.Errorf("benign cell flagged %d/%d judged windows", benign.FlaggedWindows, benign.JudgedWindows)
	}
	if benign.JudgedWindows == 0 {
		t.Error("benign cell judged no windows: the FP estimate would be vacuous")
	}
	if attack.DetectedRuns != attack.Reps {
		t.Errorf("attack cell detected in %d/%d runs", attack.DetectedRuns, attack.Reps)
	}
	if benign.Violations != 0 || attack.Violations != 0 {
		t.Errorf("invariant violations: benign %d, attack %d", benign.Violations, attack.Violations)
	}
	// Smoke reps are below the gating floor: interval gates must be
	// advisory, but the zero-violation gate still applies.
	if res.Gated() {
		t.Error("smoke run should not be gated")
	}
	if fails := res.Gate(); len(fails) != 0 {
		t.Errorf("smoke gate failures: %v", fails)
	}
	if !strings.Contains(res.Render(), "gates advisory") {
		t.Error("render should state the gates are advisory at smoke scale")
	}
}

// TestReplayGateLogic drives Gate() through synthetic results so the
// threshold arithmetic is pinned without a full-scale run.
func TestReplayGateLogic(t *testing.T) {
	mk := func(benign bool, detected, reps, flagged, judged, violations int) CellResult {
		return CellResult{
			Cell: "synthetic", Benign: benign, Reps: reps,
			DetectedRuns:   detected,
			Detection:      corpus.Wilson(detected, reps, corpus.Z95),
			FlaggedWindows: flagged, JudgedWindows: judged,
			WindowFP:   corpus.Wilson(flagged, judged, corpus.Z95),
			Violations: violations,
		}
	}
	cases := []struct {
		name  string
		cell  CellResult
		fails int
	}{
		{"benign clean", mk(true, 0, 40, 0, 15000, 0), 0},
		{"benign few flags under gate", mk(true, 0, 40, 10, 15000, 0), 0},
		{"benign too many flags", mk(true, 0, 40, 400, 15000, 0), 1},
		{"benign false accusation", mk(true, 1, 40, 0, 15000, 0), 1},
		{"benign no judged windows is vacuous [0,1]", mk(true, 0, 40, 0, 0, 0), 1},
		{"attack perfect", mk(false, 40, 40, 0, 0, 0), 0},
		{"attack one miss fails (39/40 lower bound < 0.90)", mk(false, 39, 40, 0, 0, 0), 1},
		{"violations always gate", mk(false, 40, 40, 0, 0, 2), 1},
	}
	for _, c := range cases {
		r := &Result{Reps: c.cell.Reps, Cells: []CellResult{c.cell}}
		if got := len(r.Gate()); got != c.fails {
			t.Errorf("%s: %d gate failures, want %d: %v", c.name, got, c.fails, r.Gate())
		}
	}
	// Below the gating floor only violations bind.
	small := &Result{Reps: 3, Cells: []CellResult{mk(false, 0, 3, 0, 0, 0)}}
	if fails := small.Gate(); len(fails) != 0 {
		t.Errorf("ungated run reported interval failures: %v", fails)
	}
	small.Cells[0].Violations = 1
	if fails := small.Gate(); len(fails) != 1 {
		t.Errorf("ungated run must still gate on violations: %v", fails)
	}
}
