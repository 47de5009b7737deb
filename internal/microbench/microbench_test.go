package microbench

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpsComplete(t *testing.T) {
	ops := Ops()
	if len(ops) != 13 {
		t.Fatalf("ops = %d, want 13 (Table I)", len(ops))
	}
	seen := map[string]bool{}
	for _, op := range ops {
		name := op.String()
		if strings.HasPrefix(name, "Op(") {
			t.Fatalf("unnamed op %v", op)
		}
		if seen[name] {
			t.Fatalf("duplicate op name %q", name)
		}
		seen[name] = true
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Fatal("unknown op stringer")
	}
}

func TestConfigsComplete(t *testing.T) {
	if len(Configs()) != 3 {
		t.Fatalf("configs = %v", Configs())
	}
}

// The Fig. 10 samples price the E-Android framework, not the invariant
// checker, so every configuration's device is built without one.
func TestBenchDevicesCarryNoChecker(t *testing.T) {
	for _, c := range Configs() {
		b, err := newBench(c)
		if err != nil {
			t.Fatal(err)
		}
		if b.dev.Checker != nil {
			t.Fatalf("%s: the timed device carries an invariant checker", c)
		}
	}
}

func TestRunSmall(t *testing.T) {
	results, err := Run(7) // small rep count for test speed
	if err != nil {
		t.Fatal(err)
	}
	want := len(Ops()) * len(Configs())
	if len(results) != want {
		t.Fatalf("results = %d, want %d", len(results), want)
	}
	for _, r := range results {
		if len(r.Samples) != 7-2*trimOutliers {
			t.Fatalf("%v/%v: %d samples after trim", r.Config, r.Op, len(r.Samples))
		}
		s := r.Stats
		if s.Min < 0 || s.Min > s.Q1 || s.Q1 > s.Median || s.Median > s.Q3 || s.Q3 > s.Max {
			t.Fatalf("%v/%v: non-monotone stats %+v", r.Config, r.Op, s)
		}
	}
}

func TestRunRejectsTooFewReps(t *testing.T) {
	if _, err := Run(4); err == nil {
		t.Fatal("too-few reps accepted")
	}
}

func TestTrim(t *testing.T) {
	in := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	out := Trim(in, 2)
	if len(out) != 5 {
		t.Fatalf("trimmed = %v", out)
	}
	if out[0] != 3 || out[len(out)-1] != 7 {
		t.Fatalf("trimmed = %v", out)
	}
	// Over-trim returns what's left sorted.
	if got := Trim([]float64{2, 1}, 2); len(got) != 2 || got[0] != 1 {
		t.Fatalf("over-trim = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles = %+v", s)
	}
	if got := Summarize(nil); got != (Stats{}) {
		t.Fatalf("empty stats = %+v", got)
	}
	one := Summarize([]float64{7})
	if one.Min != 7 || one.Max != 7 || one.Median != 7 {
		t.Fatalf("single stats = %+v", one)
	}
}

func TestRenderContainsEverything(t *testing.T) {
	results, err := Run(6)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(results)
	for _, op := range Ops() {
		if !strings.Contains(out, op.String()) {
			t.Fatalf("render missing %v", op)
		}
	}
	for _, cfg := range Configs() {
		if !strings.Contains(out, string(cfg)) {
			t.Fatalf("render missing %v", cfg)
		}
	}
}

// Property: Summarize is order-invariant and bounded by the sample range.
func TestPropertySummarizeBounds(t *testing.T) {
	prop := func(raw []float64) bool {
		var samples []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Keep magnitudes timing-like so the sum cannot overflow.
				samples = append(samples, math.Mod(math.Abs(v), 1e6))
			}
		}
		if len(samples) == 0 {
			return true
		}
		s := Summarize(samples)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
