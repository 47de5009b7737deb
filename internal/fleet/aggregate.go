package fleet

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/check"
	"repro/internal/core"
)

// Summary is the fleet-level merge of every successful device result.
// Its ledgers are rows in ascending UID order, like each Result's;
// because every device installs apps in the same order, a UID means the
// same app on every device in the fleet.
//
// The two count maps are allocated lazily: a fleet whose monitor is off
// or whose checks all held carries nil maps rather than two empty
// allocations per accumulator block. Nil and empty render identically
// (both sections are length-guarded).
type Summary struct {
	// Devices and Failed count the fleet's outcomes; Detected counts
	// devices whose monitor recorded at least one attack.
	Devices  int
	Failed   int
	Detected int
	// TotalDrainedJ sums battery drain across successful devices.
	TotalDrainedJ float64
	// TotalSimH sums simulated hours across successful devices — the
	// numerator of the device-sim-hours/sec throughput stat.
	TotalSimH float64
	// Energy merges the baseline ledgers, one row per UID. A row's
	// label is the first non-empty one any device gave it, in device
	// order.
	Energy []LedgerRow
	// Collateral merges E-Android's collateral ledgers the same way.
	Collateral []LedgerRow
	// AttacksByVector merges the attack logs.
	AttacksByVector map[core.Vector]int
	// Attacks is the fleet-wide attack total.
	Attacks int
	// Violations is the fleet-wide invariant violation total; zero
	// when checking is off or everything held.
	Violations int
	// ViolationsByInvariant counts violations per checker family.
	ViolationsByInvariant map[check.Invariant]int
	// Failures samples the first maxFailures failed devices in index
	// order, so a run can report which devices broke and why without
	// keeping every Result. Failed is the authoritative count.
	Failures []Failure
}

// Failure is one failed device's identity and error, sampled into
// Summary.Failures.
type Failure struct {
	Index int    `json:"index"`
	Seed  int64  `json:"seed"`
	Err   string `json:"err"`
}

// maxFailures bounds Summary.Failures: enough to diagnose, O(1) in
// fleet size.
const maxFailures = 8

// DetectionRate reports the fraction of successful devices whose
// monitor recorded at least one attack (NaN-free: zero when no device
// succeeded).
func (s Summary) DetectionRate() float64 {
	ok := s.Devices - s.Failed
	if ok == 0 {
		return 0
	}
	return float64(s.Detected) / float64(ok)
}

// MeanDrainedJ reports average battery drain per successful device.
func (s Summary) MeanDrainedJ() float64 {
	ok := s.Devices - s.Failed
	if ok == 0 {
		return 0
	}
	return s.TotalDrainedJ / float64(ok)
}

// fold reduces one device result into the summary. Callers must fold
// in index order within a block (the folder enforces this); iterating
// results — never maps — keeps every floating-point sum order-stable.
func (s *Summary) fold(r *Result) {
	s.Devices++
	if r.Err != nil {
		s.Failed++
		if len(s.Failures) < maxFailures {
			s.Failures = append(s.Failures, Failure{Index: r.Index, Seed: r.Seed, Err: r.Err.Error()})
		}
		return
	}
	s.TotalDrainedJ += r.DrainedJ
	s.TotalSimH += r.SimEnd.Hours()
	s.Attacks += r.Attacks
	if r.Detected {
		s.Detected++
	}
	s.Energy = addRows(s.Energy, r.Energy)
	s.Collateral = addRows(s.Collateral, r.Collateral)
	if len(r.AttacksByVector) > 0 {
		if s.AttacksByVector == nil {
			s.AttacksByVector = make(map[core.Vector]int)
		}
		for v, n := range r.AttacksByVector {
			s.AttacksByVector[v] += n
		}
	}
	if len(r.Violations) > 0 {
		if s.ViolationsByInvariant == nil {
			s.ViolationsByInvariant = make(map[check.Invariant]int)
		}
		for _, v := range r.Violations {
			s.Violations++
			s.ViolationsByInvariant[v.Invariant]++
		}
	}
}

// merge absorbs a completed block partial. Blocks merge strictly in
// block order, so cross-block float sums follow the same fixed tree
// for every worker count.
func (s *Summary) merge(o *Summary) {
	s.Devices += o.Devices
	s.Failed += o.Failed
	s.Detected += o.Detected
	s.TotalDrainedJ += o.TotalDrainedJ
	s.TotalSimH += o.TotalSimH
	s.Attacks += o.Attacks
	s.Violations += o.Violations
	s.Energy = addRows(s.Energy, o.Energy)
	s.Collateral = addRows(s.Collateral, o.Collateral)
	if len(o.AttacksByVector) > 0 {
		if s.AttacksByVector == nil {
			s.AttacksByVector = make(map[core.Vector]int)
		}
		for v, n := range o.AttacksByVector {
			s.AttacksByVector[v] += n
		}
	}
	if len(o.ViolationsByInvariant) > 0 {
		if s.ViolationsByInvariant == nil {
			s.ViolationsByInvariant = make(map[check.Invariant]int)
		}
		for inv, n := range o.ViolationsByInvariant {
			s.ViolationsByInvariant[inv] += n
		}
	}
	for _, f := range o.Failures {
		if len(s.Failures) >= maxFailures {
			break
		}
		s.Failures = append(s.Failures, f)
	}
}

// addRows adds src's rows into dst, both in ascending UID order, and
// returns dst. A UID dst lacks is inserted as a zero row and then added
// to: 0 + J, not a copy of J, since the two differ for -0. A row keeps
// the first non-empty label it is given: a device can report a UID
// whose label it never learned (e.g. an app uninstalled before
// harvest), and that empty string must not blind the render for the
// whole fleet.
func addRows(dst, src []LedgerRow) []LedgerRow {
	i := 0
	for _, r := range src {
		for i < len(dst) && dst[i].UID < r.UID {
			i++
		}
		if i == len(dst) || dst[i].UID != r.UID {
			dst = slices.Insert(dst, i, LedgerRow{UID: r.UID})
		}
		dst[i].J += r.J
		if dst[i].Label == "" {
			dst[i].Label = r.Label
		}
	}
	return dst
}

// rowLabel is a ledger row's printable name: its own label, else the
// label the other ledger has for its UID, else "uid:<n>" for a UID no
// device could name.
func rowLabel(row LedgerRow, other []LedgerRow) string {
	if row.Label != "" {
		return row.Label
	}
	if i, ok := slices.BinarySearchFunc(other, row, compareUID); ok && other[i].Label != "" {
		return other[i].Label
	}
	return fmt.Sprintf("uid:%d", row.UID)
}

// renderTo writes the merged report (outcome counts, ledgers, attack
// totals) without per-device lines.
func (s *Summary) renderTo(b *strings.Builder, seed int64) {
	fmt.Fprintf(b, "=== Fleet: %d devices, seed %d ===\n", s.Devices, seed)
	fmt.Fprintf(b, "outcome:   %d ok, %d failed\n", s.Devices-s.Failed, s.Failed)
	fmt.Fprintf(b, "drain:     %.3f J total, %.3f J mean/device\n", s.TotalDrainedJ, s.MeanDrainedJ())
	fmt.Fprintf(b, "attacks:   %d total, detection rate %.1f%%\n", s.Attacks, s.DetectionRate()*100)
	if s.Violations > 0 {
		fmt.Fprintf(b, "checks:    %d invariant violations\n", s.Violations)
		invs := make([]check.Invariant, 0, len(s.ViolationsByInvariant))
		for inv := range s.ViolationsByInvariant {
			invs = append(invs, inv)
		}
		sort.Slice(invs, func(i, j int) bool { return invs[i] < invs[j] })
		b.WriteString("  by invariant:")
		for _, inv := range invs {
			fmt.Fprintf(b, " %s=%d", inv, s.ViolationsByInvariant[inv])
		}
		b.WriteString("\n")
	}
	if len(s.AttacksByVector) > 0 {
		vectors := make([]core.Vector, 0, len(s.AttacksByVector))
		for v := range s.AttacksByVector {
			vectors = append(vectors, v)
		}
		sort.Slice(vectors, func(i, j int) bool { return vectors[i] < vectors[j] })
		b.WriteString("  by vector:")
		for _, v := range vectors {
			fmt.Fprintf(b, " %s=%d", v, s.AttacksByVector[v])
		}
		b.WriteString("\n")
	}
	if len(s.Energy) > 0 {
		b.WriteString("energy by app (fleet total):\n")
		for _, row := range s.Energy {
			fmt.Fprintf(b, "  %-24s %12.3f J\n", rowLabel(row, s.Collateral), row.J)
		}
	}
	if len(s.Collateral) > 0 {
		b.WriteString("collateral by driving app (fleet total):\n")
		for _, row := range s.Collateral {
			fmt.Fprintf(b, "  %-24s %12.3f J\n", rowLabel(row, s.Energy), row.J)
		}
	}
}

// Render prints the merged report for a fleet run with the given seed.
// Byte-identical for any worker count of the same spec, which is the
// acceptance surface the fleet goldens pin.
func (s *Summary) Render(seed int64) string {
	var b strings.Builder
	s.renderTo(&b, seed)
	return b.String()
}

// Render prints the fleet report: the merged summary, then the sampled
// failure list. All output is in deterministic order.
func (fr *FleetResult) Render() string {
	var b strings.Builder
	s := fr.Summary
	s.renderTo(&b, fr.Seed)
	if len(s.Failures) > 0 {
		fmt.Fprintf(&b, "failures (first %d of %d):\n", len(s.Failures), s.Failed)
		for _, f := range s.Failures {
			fmt.Fprintf(&b, "  #%03d seed=%-20d FAILED: %s\n", f.Index, f.Seed, firstLine(f.Err))
		}
	}
	return b.String()
}

// Collect sets spec.Stream, replacing any sink already there, to keep
// every device's Result in the returned slice at its Index. Read the
// slice after Run returns.
func Collect(spec *Spec) []Result {
	results := make([]Result, max(spec.Devices, 0))
	spec.Stream = func(r Result) { results[r.Index] = r }
	return results
}

// RenderDevices prints one line per device, in the order given: a
// caller that kept its fleet's results with Collect appends these to
// the summary render.
func RenderDevices(results []Result) string {
	var b strings.Builder
	b.WriteString("devices:\n")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(&b, "  #%03d seed=%-20d FAILED: %v\n", r.Index, r.Seed, firstLine(r.Err.Error()))
			continue
		}
		fmt.Fprintf(&b, "  #%03d seed=%-20d drained %10.3f J  battery %6.2f%%  attacks %d",
			r.Index, r.Seed, r.DrainedJ, r.BatteryPct, r.Attacks)
		if n := len(r.Violations); n > 0 {
			fmt.Fprintf(&b, "  VIOLATIONS %d (first: %s)", n, firstLine(r.Violations[0].String()))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
