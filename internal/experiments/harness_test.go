package experiments

import (
	"math"
	"testing"
)

// pairs returns 20 pair ratios whose interquartile mean is exactly
// 1+pct/100, wrapped in outliers the trimming must drop.
func pairs(pct float64) []float64 {
	xs := []float64{3, 3, 3, 3, 3, 0.5, 0.5, 0.5, 0.5, 0.5}
	for i := 0; i < 10; i++ {
		xs = append(xs, 1+pct/100)
	}
	return xs
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// syntheticStudy has a tight and a wide gate and no workload: the
// judge tests feed it fixed samples.
func syntheticStudy() *OverheadStudy {
	return &OverheadStudy{
		Name:  "synthetic",
		Modes: []Mode{{Name: "baseline"}, {Name: "tight"}, {Name: "wide"}},
		Gates: []Gate{{"tight", 1}, {"wide", 10}},
	}
}

// serve returns a measure function handing out one attempt per call —
// attempts[i] holds the (tight, wide) overheads in percent — and
// counts the calls.
func serve(calls *int, counts Counts, attempts ...[2]float64) func() (*sample, error) {
	return func() (*sample, error) {
		a := attempts[*calls]
		*calls++
		return &sample{
			floorMS: []float64{10, 10.1, 11},
			ratios:  [][]float64{nil, pairs(a[0]), pairs(a[1])},
			counts:  counts,
		}, nil
	}
}

func TestJudgePassesJustUnderLimit(t *testing.T) {
	calls := 0
	r, err := syntheticStudy().judge(4, serve(&calls, nil, [2]float64{0.99, 9.99}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Err != nil || calls != 1 || len(r.Tried) != 1 {
		t.Fatalf("err %v after %d calls (%d tried), want a pass on the first", r.Err, calls, len(r.Tried))
	}
	if got := r.Modes[1].OverheadPct; !near(got, 0.99) {
		t.Fatalf("tight overhead = %v, want the trimmed 0.99", got)
	}
	for _, g := range r.Gates {
		if !g.Pass || g.Op != "<=" {
			t.Fatalf("gate %+v", g)
		}
	}
}

func TestJudgeFailsJustOverLimit(t *testing.T) {
	for _, over := range [][2]float64{{1.01, 0}, {0, 10.01}} {
		calls := 0
		r, err := syntheticStudy().judge(4, serve(&calls, nil, over, over, over))
		if err != nil {
			t.Fatal(err)
		}
		if r.Err == nil || calls != gateAttempts || len(r.Tried) != gateAttempts {
			t.Fatalf("%v: err %v after %d calls, want a failure after %d", over, r.Err, calls, gateAttempts)
		}
	}
}

func TestJudgeKeepsBestAttempt(t *testing.T) {
	calls := 0
	r, _ := syntheticStudy().judge(4, serve(&calls, nil,
		[2]float64{1.5, 2}, [2]float64{0.5, 11}, [2]float64{1.2, 2}))
	// Worst gate per attempt: 1.5, 1.1, 1.2 of its limit.
	if r.Err == nil || calls != 3 || !near(r.Modes[2].OverheadPct, 11) {
		t.Fatalf("judged %+v (err %v, %d calls), want attempt 2 failing", r.Modes, r.Err, calls)
	}
}

func TestJudgeStopsAtFirstPassingAttempt(t *testing.T) {
	calls := 0
	r, _ := syntheticStudy().judge(4, serve(&calls, nil,
		[2]float64{1.5, 2}, [2]float64{0.5, 2}, [2]float64{0, 0}))
	if r.Err != nil || calls != 2 || len(r.Tried) != 2 || !near(r.Modes[1].OverheadPct, 0.5) {
		t.Fatalf("judged %+v (err %v, %d calls), want attempt 2 passing", r.Modes, r.Err, calls)
	}
}

// TestSanityRejectsBrokenCounts: a study whose by-products show it did
// not do its work fails however fast it ran, without retrying.
func TestSanityRejectsBrokenCounts(t *testing.T) {
	for _, c := range []struct {
		study  *OverheadStudy
		counts Counts
		ok     bool
	}{
		{CheckStudy, Counts{"enabled_violations": 0, "differential_violations": 0}, true},
		{CheckStudy, Counts{"enabled_violations": 1, "differential_violations": 0}, false},
		{CheckStudy, Counts{"enabled_violations": 0, "differential_violations": 2}, false},
		{ObsvStudy, Counts{"findings": 512, "flame_stacks": 5}, true},
		{ObsvStudy, Counts{"findings": 0, "flame_stacks": 5}, false},
		{ObsvStudy, Counts{"findings": 512, "flame_stacks": 0}, false},
		{TraceStudy, Counts{"spans": 23067, "dropped_spans": 0}, true},
		{TraceStudy, Counts{"spans": 0, "dropped_spans": 0}, false},
		{TraceStudy, Counts{"spans": 23067, "dropped_spans": 1}, false},
	} {
		s := c.study
		calls := 0
		r, err := s.judge(1, func() (*sample, error) {
			calls++
			return &sample{
				floorMS: make([]float64, len(s.Modes)),
				ratios:  [][]float64{nil, pairs(0), pairs(0), pairs(0)}[:len(s.Modes)],
				counts:  c.counts,
			}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if (r.Err == nil) != c.ok || calls != 1 {
			t.Errorf("%s %v: err %v after %d calls, want ok=%v after 1", s.Name, c.counts, r.Err, calls, c.ok)
		}
	}
}

// TestOverheadGatesPinned: every gate keeps its limit and names a
// non-baseline mode of its study — a gate on a missing mode would read
// 0% and never bind.
func TestOverheadGatesPinned(t *testing.T) {
	want := map[string]map[string]float64{
		"telemetry": {"enabled": 10},
		"check":     {"enabled": 5},
		"obsv":      {"enabled": 120},
		"trace":     {"full": 10},
	}
	for _, s := range []*OverheadStudy{TelemetryStudy, CheckStudy, ObsvStudy, TraceStudy} {
		if s.Modes[0].Name != "baseline" || s.Reps <= 0 {
			t.Errorf("%s: baseline %q, reps %d", s.Name, s.Modes[0].Name, s.Reps)
		}
		if len(s.Gates) != len(want[s.Name]) {
			t.Errorf("%s gates = %+v, want %v", s.Name, s.Gates, want[s.Name])
		}
		for _, g := range s.Gates {
			if g.LimitPct != want[s.Name][g.Mode] {
				t.Errorf("%s gate %s = %v%%, want %v%%", s.Name, g.Mode, g.LimitPct, want[s.Name][g.Mode])
			}
			found := false
			for _, m := range s.Modes[1:] {
				found = found || m.Name == g.Mode
			}
			if !found {
				t.Errorf("%s gate %s names no non-baseline mode", s.Name, g.Mode)
			}
		}
	}
}
