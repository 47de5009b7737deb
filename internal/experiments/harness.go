package experiments

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Overhead studies — the repro analog of the paper's §VI-C overhead
// evaluation. The paper shows E-Android is cheap by timing one workload
// under stock Android, framework-only and complete E-Android; each
// study here times one workload under a baseline and under the modes
// of one instrumentation layer, and gates each mode's cost against the
// baseline. Every study follows one protocol:
//
//   - GC is off inside timed sections and run explicitly before each
//     timed rep, after one untimed warm-up rep: a live telemetry ring
//     shifts the GC pacing target, and with ~10 ms reps whether a rep
//     absorbs one collection or two would dwarf the cost measured.
//   - Each non-baseline mode is timed against the baseline in its own
//     block of pairsPerRep×reps back-to-back pairs, alternating which
//     side runs first. The mode's overhead is the interquartile mean
//     (the mean of the middle half) of the per-pair wall-time ratios:
//     host drift slower than one pair cancels in the ratio, alternation
//     cancels ordering bias, and trimming drops scheduler outliers. A
//     1% gate needs that — a min-over-reps comparison of two
//     near-identical workloads cannot resolve 1% when the host drifts
//     by more between reps. Separate blocks keep an allocation-heavy
//     mode's churn out of every other mode's pairs.
//   - Each mode's min-over-reps wall time (its floor) is reported
//     alongside, for the absolute wall-time comparison of benchsuite
//     -benchcmp.
//   - A study is attempted up to gateAttempts times and judged on the
//     attempt whose worst gate is best, stopping at the first attempt
//     where every gate passes: the true disabled-path costs sit close
//     enough to their 1% limits that one drifty attempt must not fail
//     CI, and the smallest attempt is the noise-floor estimate, the
//     same rationale as a min-over-reps floor.

// pairsPerRep is how many (baseline, mode) pairs each rep buys every
// non-baseline mode.
const pairsPerRep = 5

// gateAttempts bounds the best-of-N attempt policy.
const gateAttempts = 3

// OverheadStudy is one entry of the overhead-study table: a workload,
// the modes it is timed in, and the gates on their overheads.
type OverheadStudy struct {
	// Name keys the study: benchsuite's -<Name> flag and its
	// BENCH_<Name>.json artifact.
	Name     string
	Title    string
	Workload string
	// Reps is the default repetition count.
	Reps int
	// Modes[0] is the baseline every other mode is paired against.
	Modes []Mode
	// Gates bound mode overheads, in percent over the baseline.
	Gates []Gate
	// Sanity, when set, rejects counts no healthy run produces: a
	// study that detected nothing is broken, not fast.
	Sanity func(Counts) error
}

// Mode is one configuration of a study's workload.
type Mode struct {
	Name  string
	Label string
	// Run runs one rep and records the counts it produces in c.
	Run func(c Counts) error
}

// Counts are the deterministic by-products of a study's runs (events
// recorded, findings, spans, violations), keyed by name.
type Counts map[string]float64

// Gate bounds one mode's paired overhead.
type Gate struct {
	Mode     string
	LimitPct float64
}

// GateResult is one judged gate: Value against Limit under Op ("<=" or
// ">=").
type GateResult struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Op    string  `json:"op"`
	Limit float64 `json:"limit"`
	Pass  bool    `json:"pass"`
}

// AtMost judges value <= limit.
func AtMost(name string, value, limit float64) GateResult {
	return GateResult{Name: name, Value: value, Op: "<=", Limit: limit, Pass: value <= limit}
}

// AtLeast judges value >= limit.
func AtLeast(name string, value, limit float64) GateResult {
	return GateResult{Name: name, Value: value, Op: ">=", Limit: limit, Pass: value >= limit}
}

// ModeResult is one mode's measurement in the judged attempt.
type ModeResult struct {
	Name string
	// FloorMS is the mode's min-over-reps wall time.
	FloorMS float64
	// OverheadPct is the interquartile mean of the mode's pair ratios,
	// minus one, in percent (zero for the baseline).
	OverheadPct float64
}

// OverheadResult is a judged study.
type OverheadResult struct {
	Study *OverheadStudy
	Reps  int
	Modes []ModeResult
	Gates []GateResult
	// Tried holds every attempt's gates, in order; Gates is one of them.
	Tried  [][]GateResult
	Counts Counts
	// Err is the verdict: nil when every gate and the sanity check
	// pass.
	Err error
}

// Run measures the study at reps repetitions (0 means s.Reps) and
// judges it. The error reports a workload that failed to run; a failed
// gate or sanity check is the result's Err.
func (s *OverheadStudy) Run(reps int) (*OverheadResult, error) {
	if reps <= 0 {
		reps = s.Reps
	}
	return s.judge(reps, func() (*sample, error) { return s.measure(reps) })
}

// sample is one timed attempt: per mode, the floor and (for
// non-baseline modes) the per-pair ratios.
type sample struct {
	floorMS []float64
	ratios  [][]float64
	counts  Counts
}

// measure times one attempt of the study.
func (s *OverheadStudy) measure(reps int) (*sample, error) {
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	smp := &sample{
		floorMS: make([]float64, len(s.Modes)),
		ratios:  make([][]float64, len(s.Modes)),
		counts:  Counts{},
	}
	if err := s.Modes[0].Run(smp.counts); err != nil { // untimed warm-up
		return nil, err
	}
	for m := 1; m < len(s.Modes); m++ {
		pair := [2]int{0, m}
		for p := 0; p < pairsPerRep*reps; p++ {
			var ms [2]float64
			for k := 0; k < 2; k++ {
				side := (p + k) % 2
				mode := pair[side]
				runtime.GC()
				start := time.Now()
				if err := s.Modes[mode].Run(smp.counts); err != nil {
					return nil, fmt.Errorf("%s study, %s mode: %w", s.Name, s.Modes[mode].Name, err)
				}
				ms[side] = float64(time.Since(start)) / float64(time.Millisecond)
				if f := &smp.floorMS[mode]; *f == 0 || ms[side] < *f {
					*f = ms[side]
				}
			}
			smp.ratios[m] = append(smp.ratios[m], ms[1]/ms[0])
		}
	}
	return smp, nil
}

// judge takes attempts from measure until every gate passes, at most
// gateAttempts of them, and judges the one whose worst gate is best.
// It does no timing of its own, so tests drive it with fixed ratios.
func (s *OverheadStudy) judge(reps int, measure func() (*sample, error)) (*OverheadResult, error) {
	var best *OverheadResult
	var tried [][]GateResult
	bestWorst := math.Inf(1)
	for attempt := 1; attempt <= gateAttempts; attempt++ {
		smp, err := measure()
		if err != nil {
			return nil, err
		}
		r := &OverheadResult{Study: s, Reps: reps, Counts: smp.counts}
		for i, m := range s.Modes {
			mr := ModeResult{Name: m.Name, FloorMS: smp.floorMS[i]}
			if i > 0 {
				mr.OverheadPct = (interquartileMean(smp.ratios[i]) - 1) * 100
			}
			r.Modes = append(r.Modes, mr)
		}
		worst := math.Inf(-1)
		for _, g := range s.Gates {
			pct := r.mode(g.Mode).OverheadPct
			r.Gates = append(r.Gates, AtMost(g.Mode, pct, g.LimitPct))
			worst = math.Max(worst, pct/g.LimitPct)
		}
		tried = append(tried, r.Gates)
		if best == nil || worst < bestWorst {
			best, bestWorst = r, worst
		}
		best.Tried = tried
		if s.Sanity != nil {
			if err := s.Sanity(r.Counts); err != nil {
				best.Err = fmt.Errorf("%s study sanity failed: %w", s.Name, err)
				return best, nil
			}
		}
		if bestWorst <= 1 {
			break
		}
	}
	var failed []string
	for _, g := range best.Gates {
		if !g.Pass {
			failed = append(failed, fmt.Sprintf("%s %+.2f%% > %g%%", g.Name, g.Value, g.Limit))
		}
	}
	if len(failed) > 0 {
		best.Err = fmt.Errorf("%s overhead gate failed, best of %d attempts: %s",
			s.Name, len(tried), strings.Join(failed, ", "))
	}
	return best, nil
}

// mode returns the named mode's result (zero if absent).
func (r *OverheadResult) mode(name string) ModeResult {
	for _, m := range r.Modes {
		if m.Name == name {
			return m
		}
	}
	return ModeResult{}
}

// interquartileMean is the mean of the middle half of xs, which it
// sorts in place.
func interquartileMean(xs []float64) float64 {
	sort.Float64s(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

func overheadPct(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (v/base - 1) * 100
}

// Render prints the study like the paper's overhead tables: each
// mode's floor, its paired overhead (the gated statistic) and the
// ratio of the floors.
func (r *OverheadResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", r.Study.Title)
	fmt.Fprintf(&b, "workload: %s; %d reps (%d alternating pairs per mode)\n",
		r.Study.Workload, r.Reps, pairsPerRep*r.Reps)
	for i, gates := range r.Tried {
		terms := make([]string, len(gates))
		for j, g := range gates {
			terms[j] = fmt.Sprintf("%s %+.2f%%", g.Name, g.Value)
		}
		fmt.Fprintf(&b, "  attempt %d/%d: %s\n", i+1, gateAttempts, strings.Join(terms, ", "))
	}
	fmt.Fprintf(&b, "  %-42s %10s %9s %9s\n", "mode", "floor ms", "paired", "floors")
	base := r.Modes[0].FloorMS
	for i, m := range r.Modes {
		label := fmt.Sprintf("%s (%s)", m.Name, r.Study.Modes[i].Label)
		if i == 0 {
			fmt.Fprintf(&b, "  %-42s %10.3f\n", label, m.FloorMS)
			continue
		}
		fmt.Fprintf(&b, "  %-42s %10.3f %+8.2f%% %+8.2f%%\n",
			label, m.FloorMS, m.OverheadPct, overheadPct(m.FloorMS, base))
	}
	for _, g := range r.Gates {
		fmt.Fprintf(&b, "  gate %s: paired %+.2f%% %s %g%% pass=%v\n", g.Name, g.Value, g.Op, g.Limit, g.Pass)
	}
	if len(r.Counts) > 0 {
		keys := make([]string, 0, len(r.Counts))
		for k := range r.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		terms := make([]string, len(keys))
		for i, k := range keys {
			terms[i] = fmt.Sprintf("%s %.0f", k, r.Counts[k])
		}
		fmt.Fprintf(&b, "  counts: %s\n", strings.Join(terms, ", "))
	}
	return b.String()
}
