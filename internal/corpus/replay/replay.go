// Package replay is the corpus's statistical harness: it runs every
// (archetype x attack-variant) cell of the generated scenario corpus N
// times through the fleet runner with the obsv watchdog attached, and
// reduces each cell to detection-rate and false-positive-rate estimates
// with Wilson 95% confidence intervals.
//
// The harness exists to upgrade the repo's correctness claim from
// "the watchdog separates six hand-written scenes" to "the separation
// holds across a generated population, with stated confidence". Its
// CI gates therefore compare interval BOUNDS, not point estimates: a
// benign cell passes only if even the upper end of its false-positive
// interval is under the threshold, and an attack cell only if even the
// lower end of its detection interval clears the bar.
//
// Two different trial units are deliberately in play:
//
//   - Detection is a run-level Bernoulli trial (did this device's
//     watchdog name the malware as a collateral driver at least once?),
//     estimated over the cell's N seeded repetitions.
//   - False positives are window-level trials: every user-quiet window
//     the watchdog judged is one trial, flagged or clean. A 4-hour
//     benign run judges hundreds of windows, so the pooled interval is
//     tight enough for a 2% gate — run-level counts over N=40 never
//     could be (0 failures in 40 still leaves an 8.8% upper bound).
package replay

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/obsv"
	"repro/internal/scenario"
)

// Defaults and gate thresholds.
const (
	// DefaultReps is the per-cell repetition count. 40, not the issue's
	// floor of 30: a perfect 40/40 detection record has Wilson lower
	// bound 0.912, clearing the 90% gate, while 30/30 only reaches
	// 0.887 — at N=30 the gate would be unsatisfiable even for a
	// flawless detector.
	DefaultReps = 40
	// MinGatedReps is the repetition floor below which the gates are
	// advisory (smoke runs): intervals from tiny N are too wide to
	// mean anything.
	MinGatedReps = 30
	// DefaultRootSeed seeds the committed BENCH_corpus.json artifact.
	DefaultRootSeed = 0x5eedc0de
	// FPGateMax is the benign-cell gate: the Wilson-95% upper bound of
	// the window-level false-positive rate must not exceed this.
	FPGateMax = 0.02
	// DetectGateMin is the attack-cell gate: the Wilson-95% lower
	// bound of the run-level detection rate must reach this.
	DetectGateMin = 0.90
)

// Options configures a replay run. The zero value runs the full corpus
// at the committed defaults.
type Options struct {
	// RootSeed derives every cell/rep script seed; zero means
	// DefaultRootSeed.
	RootSeed int64
	// Reps is the per-cell repetition count; zero means DefaultReps.
	Reps int
	// Workers bounds fleet concurrency; zero means GOMAXPROCS.
	Workers int
	// Horizon overrides the script span; zero means
	// corpus.DefaultHorizon.
	Horizon time.Duration
	// Cells restricts the run to a subset of the corpus grid (smoke
	// runs, corpus jobs); nil means the full grid. Each cell's scripts
	// are seeded by its index in corpus.Cells(), so a cell runs the same
	// scripts in any subset as in the full grid.
	Cells []corpus.Cell
	// Progress, when non-nil, receives one tick per finished device —
	// the fleet runner's live feed, passed straight through so a jobs
	// control plane can stream replay progress over SSE. Like
	// fleet.Spec.Progress it is called from worker goroutines and must
	// be safe for concurrent calls.
	Progress func(fleet.Progress)
}

// CellResult is one corpus cell's statistical summary.
type CellResult struct {
	Cell      string `json:"cell"`
	Archetype string `json:"archetype"`
	Variant   string `json:"variant"`
	Benign    bool   `json:"benign"`
	Reps      int    `json:"reps"`
	// DetectedRuns counts repetitions whose watchdog raised at least
	// one collateral-divergence finding naming the malware; Detection
	// is its run-level Wilson estimate. For benign cells a "detection"
	// is a false accusation, so the same number gates from above.
	DetectedRuns int             `json:"detected_runs"`
	Detection    corpus.Estimate `json:"detection"`
	// JudgedWindows pools every user-quiet window the watchdog judged
	// across the cell's repetitions; FlaggedWindows are those that
	// produced at least one finding; WindowFP is the pooled Wilson
	// estimate of the flagged fraction.
	JudgedWindows  int             `json:"judged_windows"`
	FlaggedWindows int             `json:"flagged_windows"`
	WindowFP       corpus.Estimate `json:"window_fp"`
	// FindingsTotal counts all findings across repetitions.
	FindingsTotal int `json:"findings_total"`
	// Violations counts runtime invariant violations (always-on checks;
	// must be zero).
	Violations int `json:"violations"`
	// MeanDrainedJ is the mean battery drain per repetition.
	MeanDrainedJ float64 `json:"mean_drained_j"`
}

// Result is a full replay: one CellResult per cell, in canonical cell
// order. Everything except Workers is independent of worker count and
// byte-identical for a given (RootSeed, Reps, Horizon, Cells).
type Result struct {
	RootSeed int64         `json:"root_seed"`
	Reps     int           `json:"reps"`
	Workers  int           `json:"workers"`
	Horizon  time.Duration `json:"horizon"`
	Cells    []CellResult  `json:"cells"`
}

// runOutcome is one device's harvest, written by the fleet worker that
// owns the device index (disjoint-index writes, no locking needed).
// violations and drainedJ arrive via the fleet's Stream sink — the
// replay runs the streaming path, so per-device Results are folded and
// dropped instead of retained; this small fixed-size record is all the
// statistics need.
type runOutcome struct {
	detected   bool
	findings   int
	stats      obsv.WindowStats
	violations int
	drainedJ   float64
}

// Run replays the corpus. Per-device failures abort the replay: a
// corpus whose scripts cannot even execute has no statistics worth
// reporting.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.RootSeed == 0 {
		opts.RootSeed = DefaultRootSeed
	}
	if opts.Reps <= 0 {
		opts.Reps = DefaultReps
	}
	if opts.Horizon == 0 {
		opts.Horizon = corpus.DefaultHorizon
	}
	cells := opts.Cells
	if cells == nil {
		cells = corpus.Cells()
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("replay: no cells")
	}
	grid := corpus.Cells()
	reps := opts.Reps
	params := corpus.Params{Horizon: opts.Horizon}

	// Pre-generate nothing: each worker generates its device's script
	// from the pure (root, canonical cell index, rep) seed chain, so the
	// fleet's memory high-water mark stays one script per worker.
	outcomes := make([]runOutcome, len(cells)*reps)
	fr, err := fleet.Run(ctx, fleet.Spec{
		Devices: len(cells) * reps,
		Workers: opts.Workers,
		Seed:    opts.RootSeed,
		Config: device.Config{
			EAndroid: true,
			Policy:   accounting.BatteryStats,
			Checks:   &check.Options{},
		},
		Progress: opts.Progress,
		// The Stream sink runs on the worker goroutine right after the
		// device finishes; outcome writes stay disjoint-index, and the
		// per-cell reductions below iterate outcomes in rep order — the
		// exact float-sum order the retained path used, so the committed
		// BENCH_corpus.json statistics stay byte-identical.
		Stream: func(r fleet.Result) {
			o := &outcomes[r.Index]
			o.violations = len(r.Violations)
			o.drainedJ = r.DrainedJ
		},
		Scenario: func(i int, dev *device.Device) error {
			cellIdx, rep := i/reps, i%reps
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			wd, err := obsv.NewWatchdog(dev, obsv.WatchdogOptions{})
			if err != nil {
				return err
			}
			wd.Start()
			// The seed chain takes the cell's index in the corpus grid,
			// not in cells. A cell outside the grid (-1) is one Play
			// rejects.
			seed := corpus.ScriptSeed(opts.RootSeed, slices.Index(grid, cells[cellIdx]), rep)
			if err := corpus.Play(w, cells[cellIdx], seed, params); err != nil {
				return err
			}
			o := &outcomes[i]
			findings := wd.Finish()
			o.findings = len(findings)
			o.detected = obsv.Detected(findings, w.Malware.UID)
			o.stats = wd.Stats()
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	for _, f := range fr.Summary.Failures {
		cellIdx, rep := f.Index/reps, f.Index%reps
		return nil, fmt.Errorf("replay: cell %s rep %d: %s", cells[cellIdx], rep, f.Err)
	}

	res := &Result{
		RootSeed: opts.RootSeed,
		Reps:     reps,
		Workers:  fr.Workers,
		Horizon:  opts.Horizon,
	}
	for ci, cell := range cells {
		cr := CellResult{
			Cell:      cell.String(),
			Archetype: string(cell.Archetype),
			Variant:   string(cell.Variant),
			Benign:    cell.Variant.Benign(),
			Reps:      reps,
		}
		for rep := 0; rep < reps; rep++ {
			i := ci*reps + rep
			o := &outcomes[i]
			if o.detected {
				cr.DetectedRuns++
			}
			cr.FindingsTotal += o.findings
			cr.JudgedWindows += o.stats.Judged
			cr.FlaggedWindows += o.stats.Flagged
			cr.Violations += o.violations
			cr.MeanDrainedJ += o.drainedJ
		}
		cr.MeanDrainedJ /= float64(reps)
		cr.Detection = corpus.Wilson(cr.DetectedRuns, reps, corpus.Z95)
		cr.WindowFP = corpus.Wilson(cr.FlaggedWindows, cr.JudgedWindows, corpus.Z95)
		res.Cells = append(res.Cells, cr)
	}
	return res, nil
}

// Gated reports whether this run's repetition count makes the CI gates
// binding.
func (r *Result) Gated() bool { return r.Reps >= MinGatedReps }

// Gate checks every cell against the corpus thresholds and returns one
// message per violation (nil = pass). Runs under MinGatedReps return
// only violation-count failures — interval gates need real N.
func (r *Result) Gate() []string {
	var fails []string
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Violations > 0 {
			fails = append(fails, fmt.Sprintf(
				"%s: %d invariant violations (want 0)", c.Cell, c.Violations))
		}
		if !r.Gated() {
			continue
		}
		if c.Benign {
			if c.WindowFP.Hi > FPGateMax {
				fails = append(fails, fmt.Sprintf(
					"%s: benign window FP upper bound %.4f > %.2f (%d/%d windows flagged)",
					c.Cell, c.WindowFP.Hi, FPGateMax, c.FlaggedWindows, c.JudgedWindows))
			}
			if c.DetectedRuns > 0 {
				fails = append(fails, fmt.Sprintf(
					"%s: benign cell accused the malware in %d/%d runs",
					c.Cell, c.DetectedRuns, c.Reps))
			}
		} else if c.Detection.Lo < DetectGateMin {
			fails = append(fails, fmt.Sprintf(
				"%s: detection lower bound %.4f < %.2f (%d/%d runs detected)",
				c.Cell, c.Detection.Lo, DetectGateMin, c.DetectedRuns, c.Reps))
		}
	}
	return fails
}

// MarshalCells renders the per-cell table as deterministic JSON — the
// payload the golden determinism test pins across worker counts.
func (r *Result) MarshalCells() ([]byte, error) {
	return json.MarshalIndent(r.Cells, "", "  ")
}

// Render prints the replay summary table. Deliberately excludes the
// worker count: the render is a determinism surface, byte-identical
// across fleet parallelism.
func (r *Result) Render() string {
	var b strings.Builder
	b.WriteString("=== Corpus replay: watchdog separation with 95% confidence intervals ===\n")
	fmt.Fprintf(&b, "root seed %#x, %d reps/cell, horizon %v; gates: benign window-FP upper <= %.0f%%, attack detection lower >= %.0f%%\n",
		r.RootSeed, r.Reps, r.Horizon, FPGateMax*100, DetectGateMin*100)
	fmt.Fprintf(&b, "%-40s %-10s %-22s %-24s %s\n",
		"cell", "detected", "detection 95% CI", "window FP (flag/judged)", "FP upper")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "%-40s %3d/%-3d    [%.4f, %.4f]       %6d/%-10d        %.4f\n",
			c.Cell, c.DetectedRuns, c.Reps, c.Detection.Lo, c.Detection.Hi,
			c.FlaggedWindows, c.JudgedWindows, c.WindowFP.Hi)
	}
	if fails := r.Gate(); len(fails) > 0 {
		sort.Strings(fails)
		b.WriteString("GATE FAILURES:\n")
		for _, f := range fails {
			b.WriteString("  " + f + "\n")
		}
	} else if r.Gated() {
		b.WriteString("all gates pass\n")
	} else {
		fmt.Fprintf(&b, "gates advisory (reps %d < %d)\n", r.Reps, MinGatedReps)
	}
	return b.String()
}
