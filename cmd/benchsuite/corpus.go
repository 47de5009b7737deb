package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/corpus/replay"
	"repro/internal/experiments"
)

// corpusStudy replays the corpus at the shape (Cells > 0 restricts it
// to the first N canonical cells; the order interleaves benign and
// attack variants, so even a two-cell smoke run exercises both gates),
// prints the summary table, and enforces the interval gates (binding
// only at reps >= replay.MinGatedReps; the zero-violation gate always
// binds). The cell statistics are the artifact's detail: the replay is
// deterministic, so -benchcmp requires them byte-identical.
func corpusStudy(sh shape) (*artifact, error) {
	opts := replay.Options{RootSeed: sh.Seed, Reps: sh.Reps, Workers: sh.Workers, Horizon: sh.Horizon}
	if sh.Cells > 0 {
		all := corpus.Cells()
		opts.Cells = all[:min(sh.Cells, len(all))]
	}
	start := time.Now()
	res, err := replay.Run(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	wallMS := float64(time.Since(start).Microseconds()) / 1000
	cells, err := json.Marshal(res.Cells)
	if err != nil {
		return nil, err
	}
	fails := res.Gate()
	a := &artifact{
		shape:  shape{Reps: res.Reps, Workers: sh.Workers, Seed: res.RootSeed, Cells: sh.Cells, Horizon: res.Horizon},
		Modes:  []mode{{Name: "replay", WallMS: wallMS}},
		Gates:  []experiments.GateResult{experiments.AtMost("failed_cell_checks", float64(len(fails)), 0)},
		Detail: cells,
	}
	fmt.Println(res.Render())
	fmt.Printf("corpus replay: %d cells x %d reps in %.1fms\n", len(res.Cells), res.Reps, wallMS)
	if len(fails) > 0 {
		return a, fmt.Errorf("corpus gate failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return a, nil
}
