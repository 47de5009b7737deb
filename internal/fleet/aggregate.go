package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/app"
	"repro/internal/check"
	"repro/internal/core"
)

// Summary is the fleet-level merge of every successful device result.
// All maps are keyed the same way as the per-device results; because
// every device installs apps in the same order, a UID means the same
// app on every device in the fleet.
//
// Maps are allocated lazily: a fleet where every device failed, or one
// whose monitor is off, carries nil maps rather than five empty
// allocations per accumulator block. Nil and empty render identically
// (every map section is length-guarded), so laziness is invisible in
// the byte-determinism surface.
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
	// EnergyByUID merges the baseline ledgers.
	EnergyByUID map[app.UID]float64
	// CollateralByUID merges E-Android's collateral maps.
	CollateralByUID map[app.UID]float64
	// AttacksByVector merges the attack logs.
	AttacksByVector map[core.Vector]int
	// Attacks is the fleet-wide attack total.
	Attacks int
	// Labels maps each UID to its label (taken from the first device
	// that reported a non-empty one; "uid:<n>" when none did).
	Labels map[app.UID]string
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
	if len(r.Energy) > 0 && s.EnergyByUID == nil {
		s.EnergyByUID = make(map[app.UID]float64)
	}
	for _, row := range r.Energy {
		s.EnergyByUID[row.UID] += row.J
		s.label(row)
	}
	if len(r.Collateral) > 0 && s.CollateralByUID == nil {
		s.CollateralByUID = make(map[app.UID]float64)
	}
	for _, row := range r.Collateral {
		s.CollateralByUID[row.UID] += row.J
		s.label(row)
	}
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

// label records row's label for its UID unless an earlier device gave
// one. First non-empty label wins: a device can report a UID whose
// label it never learned (e.g. an app uninstalled before harvest), and
// taking that empty string first-come blinded Render for the whole
// fleet.
func (s *Summary) label(row LedgerRow) {
	if row.Label == "" {
		return
	}
	if s.Labels == nil {
		s.Labels = make(map[app.UID]string)
	}
	if _, ok := s.Labels[row.UID]; !ok {
		s.Labels[row.UID] = row.Label
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
	if len(o.EnergyByUID) > 0 {
		if s.EnergyByUID == nil {
			s.EnergyByUID = make(map[app.UID]float64)
		}
		for uid, j := range o.EnergyByUID {
			s.EnergyByUID[uid] += j
		}
	}
	if len(o.CollateralByUID) > 0 {
		if s.CollateralByUID == nil {
			s.CollateralByUID = make(map[app.UID]float64)
		}
		for uid, j := range o.CollateralByUID {
			s.CollateralByUID[uid] += j
		}
	}
	if len(o.AttacksByVector) > 0 {
		if s.AttacksByVector == nil {
			s.AttacksByVector = make(map[core.Vector]int)
		}
		for v, n := range o.AttacksByVector {
			s.AttacksByVector[v] += n
		}
	}
	for uid, label := range o.Labels {
		if s.Labels == nil {
			s.Labels = make(map[app.UID]string)
		}
		if _, ok := s.Labels[uid]; !ok {
			s.Labels[uid] = label
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

// backfillLabels gives every ledger UID a printable name: Render
// indexes Labels by every ledger UID, and a UID no device could label
// must still print something identifiable. Runs once, after the final
// block merge.
func (s *Summary) backfillLabels() {
	if len(s.EnergyByUID)+len(s.CollateralByUID) > 0 && s.Labels == nil {
		s.Labels = make(map[app.UID]string)
	}
	for uid := range s.EnergyByUID {
		if s.Labels[uid] == "" {
			s.Labels[uid] = fmt.Sprintf("uid:%d", uid)
		}
	}
	for uid := range s.CollateralByUID {
		if s.Labels[uid] == "" {
			s.Labels[uid] = fmt.Sprintf("uid:%d", uid)
		}
	}
}

// sortedUIDs returns m's keys in ascending UID order.
func sortedUIDs(m map[app.UID]float64) []app.UID {
	uids := make([]app.UID, 0, len(m))
	for uid := range m {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	return uids
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
	if len(s.EnergyByUID) > 0 {
		b.WriteString("energy by app (fleet total):\n")
		for _, uid := range sortedUIDs(s.EnergyByUID) {
			fmt.Fprintf(b, "  %-24s %12.3f J\n", s.Labels[uid], s.EnergyByUID[uid])
		}
	}
	if len(s.CollateralByUID) > 0 {
		b.WriteString("collateral by driving app (fleet total):\n")
		for _, uid := range sortedUIDs(s.CollateralByUID) {
			fmt.Fprintf(b, "  %-24s %12.3f J\n", s.Labels[uid], s.CollateralByUID[uid])
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
