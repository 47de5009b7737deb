package fleet

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/check"
)

// Regression: the label merge used to take the first label seen for a
// UID — including the empty string a device reports for an app it could
// no longer name (e.g. uninstalled before harvest) — which blanked the
// fleet render for everyone. First NON-empty label wins now, with a
// "uid:<n>" fallback when no device could name the UID.
func TestSummarizeLabelFallback(t *testing.T) {
	rs := []Result{
		{Index: 0,
			EnergyByUID: map[app.UID]float64{10: 5, 11: 2},
			Labels:      map[app.UID]string{10: "", 11: ""}},
		{Index: 1,
			EnergyByUID:     map[app.UID]float64{10: 3},
			CollateralByUID: map[app.UID]float64{12: 1},
			Labels:          map[app.UID]string{10: "Victim"}},
	}
	s := summarize(rs)
	if got := s.Labels[10]; got != "Victim" {
		t.Fatalf("Labels[10] = %q, want the later device's non-empty label", got)
	}
	if got := s.Labels[11]; got != "uid:11" {
		t.Fatalf("Labels[11] = %q, want the uid fallback", got)
	}
	if got := s.Labels[12]; got != "uid:12" {
		t.Fatalf("Labels[12] = %q, want the uid fallback for collateral-only UIDs", got)
	}
	for i, line := range strings.Split(s.Render(0), "\n") {
		if strings.Contains(line, " J") && strings.HasPrefix(strings.TrimSpace(line), "J") {
			t.Fatalf("render line %d has an empty label: %q", i, line)
		}
	}
}

func TestSummarizeCountsViolations(t *testing.T) {
	rs := []Result{
		{Index: 0, Violations: []check.Violation{
			{Invariant: check.InvConservation, Detail: "d0"},
			{Invariant: check.InvLifecycle, Detail: "d1"},
		}},
		{Index: 1, Violations: []check.Violation{
			{Invariant: check.InvConservation, Detail: "d2"},
		}},
		{Index: 2},
	}
	s := summarize(rs)
	if s.Violations != 3 {
		t.Fatalf("Violations = %d, want 3", s.Violations)
	}
	if s.ViolationsByInvariant[check.InvConservation] != 2 ||
		s.ViolationsByInvariant[check.InvLifecycle] != 1 {
		t.Fatalf("ViolationsByInvariant = %v", s.ViolationsByInvariant)
	}
	out := s.Render(0) + RenderDevices(rs)
	if !strings.Contains(out, "checks:    3 invariant violations") {
		t.Fatalf("render missing fleet violation total:\n%s", out)
	}
	if !strings.Contains(out, "conservation=2") || !strings.Contains(out, "lifecycle=1") {
		t.Fatalf("render missing per-invariant counts:\n%s", out)
	}
	if !strings.Contains(out, "VIOLATIONS 2") {
		t.Fatalf("render missing per-device violation flag:\n%s", out)
	}
}

// A clean fleet must render byte-identically to the pre-checker format:
// no "checks:" line, no per-device VIOLATIONS suffix.
func TestRenderOmitsCheckLinesWhenClean(t *testing.T) {
	rs := []Result{{Index: 0, DrainedJ: 1}}
	s := summarize(rs)
	out := s.Render(0) + RenderDevices(rs)
	if strings.Contains(out, "checks:") || strings.Contains(out, "VIOLATIONS") {
		t.Fatalf("clean fleet render mentions checks:\n%s", out)
	}
}

// Regression for the eager-map bug: summarize used to allocate all
// five merge maps even when no device contributed to them. The
// accumulator now allocates lazily, and the render must stay
// byte-identical (length-guarded sections treat nil and empty alike).
func TestSummaryMapsAllocatedLazily(t *testing.T) {
	rs := []Result{
		{Index: 0, Err: errForTest("down")},
		{Index: 1, Err: errForTest("down")},
	}
	s := summarize(rs)
	if s.EnergyByUID != nil || s.CollateralByUID != nil || s.AttacksByVector != nil ||
		s.Labels != nil || s.ViolationsByInvariant != nil {
		t.Fatalf("all-failed summary allocated merge maps: %+v", s)
	}
	if s.Failed != 2 || len(s.Failures) != 2 {
		t.Fatalf("failed = %d, failures = %d, want 2/2", s.Failed, len(s.Failures))
	}

	// Monitor-off devices contribute ledgers and labels but no attack
	// or collateral maps.
	rs = []Result{{Index: 0, DrainedJ: 3,
		EnergyByUID: map[app.UID]float64{10: 3},
		Labels:      map[app.UID]string{10: "App"}}}
	s = summarize(rs)
	if s.EnergyByUID == nil || s.Labels == nil {
		t.Fatal("contributing maps not built")
	}
	if s.CollateralByUID != nil || s.AttacksByVector != nil || s.ViolationsByInvariant != nil {
		t.Fatal("monitor-off summary allocated monitor maps")
	}
	out := s.Render(0)
	if !strings.Contains(out, "energy by app") || strings.Contains(out, "collateral") {
		t.Fatalf("lazy summary render wrong:\n%s", out)
	}
}

// The fleet render lists the sampled failures; per-device lines are the
// caller's, through RenderDevices.
func TestRenderFailuresSampleWithoutResults(t *testing.T) {
	rs := make([]Result, 12)
	for i := range rs {
		rs[i] = Result{Index: i, Seed: int64(i), Err: errForTest("boom")}
	}
	out := (&FleetResult{Summary: summarize(rs)}).Render()
	if !strings.Contains(out, "failures (first 8 of 12):") {
		t.Fatalf("streaming render missing failure sample header:\n%s", out)
	}
	if strings.Contains(out, "devices:") {
		t.Fatalf("streaming render printed a devices section:\n%s", out)
	}
	if got := strings.Count(out, "FAILED: boom"); got != 8 {
		t.Fatalf("failure lines = %d, want maxFailures (8)", got)
	}
}

// summarize folds results through the same tree the streaming runner
// uses (index order within a blockSize block, blocks merged in order):
// the reference fold the accumulator tests compare against.
func summarize(results []Result) Summary {
	var final Summary
	for start := 0; start < len(results); start += blockSize {
		var bs Summary
		for i := start; i < min(start+blockSize, len(results)); i++ {
			bs.fold(&results[i])
		}
		final.merge(&bs)
	}
	final.backfillLabels()
	return final
}

type errForTest string

func (e errForTest) Error() string { return string(e) }
