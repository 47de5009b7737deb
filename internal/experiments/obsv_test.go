package experiments

import (
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/scenario"
)

// TestWatchdogStudySeparation is the PR's headline acceptance: the live
// watchdog flags every one of the paper's six attacks while staying
// silent on both benign scenes.
func TestWatchdogStudySeparation(t *testing.T) {
	res, err := WatchdogStudy(scenario.NewWorld)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 8 {
		t.Fatalf("got %d cases, want 8", len(res.Cases))
	}
	for _, c := range res.Cases {
		if c.Benign && c.Flagged {
			t.Errorf("%s: benign scene flagged: %+v", c.Name, c.Findings)
		}
		if !c.Benign && !c.Flagged {
			t.Errorf("%s: attack not flagged", c.Name)
		}
	}
	// Every attack's findings must include the paper's esDiagnose
	// signal: collateral energy diverging from direct energy.
	for _, c := range res.Cases {
		if c.Benign {
			continue
		}
		hasDivergence := false
		for _, f := range c.Findings {
			if f.Signal == obsv.SignalDivergence {
				hasDivergence = true
			}
			if f.RateMW <= 0 {
				t.Errorf("%s: finding with non-positive rate: %+v", c.Name, f)
			}
		}
		if !hasDivergence {
			t.Errorf("%s: no %s finding (got %s)", c.Name, obsv.SignalDivergence, signalSummary(c.Findings))
		}
	}
	out := res.Render()
	for _, want := range []string{"attack6-wakelock-screen", "scene1-message-film", "benign"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestWatchdogStudyDeterminism re-runs one attack case and requires the
// identical findings sequence — the watchdog sits on the deterministic
// side of the obsv split.
func TestWatchdogStudyDeterminism(t *testing.T) {
	run := func() []obsv.Finding {
		res, err := WatchdogStudy(scenario.NewWorld)
		if err != nil {
			t.Fatal(err)
		}
		var all []obsv.Finding
		for _, c := range res.Cases {
			all = append(all, c.Findings...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("finding counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("finding %d differs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestObsvStudyAllocationPin: one "enabled" run of the obsv study —
// the stealth device under a watchdog and a flame collector, on a
// recorder keeping both rings — allocates at most 400 times. Nearly
// every window raises findings; past DefaultMaxFindings they are only
// counted, and each reaches the recorder's ring as numbers and a label.
// When every finding's text was rendered as it was raised, the run
// allocated 11,814 times.
func TestObsvStudyAllocationPin(t *testing.T) {
	var enabled Mode
	for _, m := range ObsvStudy.Modes {
		if m.Name == "enabled" {
			enabled = m
		}
	}
	c := Counts{}
	allocs := testing.AllocsPerRun(1, func() {
		if err := enabled.Run(c); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run, %.0f findings kept", allocs, c["findings"])
	if allocs > 400 {
		t.Fatalf("an enabled obsv study run allocated %.0f times, want at most 400", allocs)
	}
}
