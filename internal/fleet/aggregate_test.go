package fleet

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
)

// Regression: the label merge used to take the first label seen for a
// UID — including the empty string a device reports for an app it could
// no longer name (e.g. uninstalled before harvest) — which blanked the
// fleet render for everyone. A row keeps the first NON-empty label it
// is given; the render falls back to the other ledger's label for the
// UID, then to "uid:<n>" when no device could name it.
func TestSummarizeLabelFallback(t *testing.T) {
	rs := []Result{
		{Index: 0,
			Energy:     []LedgerRow{{UID: 10, J: 5}, {UID: 11, J: 2}, {UID: 13, J: 4}},
			Collateral: []LedgerRow{{UID: 10, J: 1}}},
		{Index: 1,
			Energy:     []LedgerRow{{UID: 10, J: 3, Label: "Victim"}},
			Collateral: []LedgerRow{{UID: 12, J: 1}, {UID: 13, J: 2, Label: "Driver"}}},
	}
	s := summarize(rs)
	want := []LedgerRow{{UID: 10, J: 8, Label: "Victim"}, {UID: 11, J: 2}, {UID: 13, J: 4}}
	if !slices.Equal(s.Energy, want) {
		t.Fatalf("Energy = %+v, want %+v", s.Energy, want)
	}
	want = []LedgerRow{{UID: 10, J: 1}, {UID: 12, J: 1}, {UID: 13, J: 2, Label: "Driver"}}
	if !slices.Equal(s.Collateral, want) {
		t.Fatalf("Collateral = %+v, want %+v", s.Collateral, want)
	}
	out := s.Render(0)
	for _, line := range []string{
		"energy by app (fleet total):\n" +
			"  Victim                          8.000 J\n" +
			"  uid:11                          2.000 J\n" +
			"  Driver                          4.000 J\n",
		"collateral by driving app (fleet total):\n" +
			"  Victim                          1.000 J\n" +
			"  uid:12                          1.000 J\n" +
			"  Driver                          2.000 J\n",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("render missing\n%s\ngot:\n%s", line, out)
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

// Regression for the eager-map bug: summarize used to allocate every
// merge map even when no device contributed to it. The ledgers are rows
// that stay nil until a device adds one, the two count maps are
// allocated lazily, and the render is the same for nil and empty
// (length-guarded sections).
func TestSummaryMapsAllocatedLazily(t *testing.T) {
	rs := []Result{
		{Index: 0, Err: errForTest("down")},
		{Index: 1, Err: errForTest("down")},
	}
	s := summarize(rs)
	if s.Energy != nil || s.Collateral != nil || s.AttacksByVector != nil || s.ViolationsByInvariant != nil {
		t.Fatalf("all-failed summary allocated ledgers or count maps: %+v", s)
	}
	if s.Failed != 2 || len(s.Failures) != 2 {
		t.Fatalf("failed = %d, failures = %d, want 2/2", s.Failed, len(s.Failures))
	}

	// Monitor-off devices contribute energy rows but no collateral rows
	// or attack counts.
	rs = []Result{{Index: 0, DrainedJ: 3, Energy: []LedgerRow{{UID: 10, J: 3, Label: "App"}}}}
	s = summarize(rs)
	if len(s.Energy) != 1 {
		t.Fatalf("Energy = %+v, want the device's one row", s.Energy)
	}
	if s.Collateral != nil || s.AttacksByVector != nil || s.ViolationsByInvariant != nil {
		t.Fatal("monitor-off summary allocated collateral rows or count maps")
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
	return final
}

type errForTest string

func (e errForTest) Error() string { return string(e) }
