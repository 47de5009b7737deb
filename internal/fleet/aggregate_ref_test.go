package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/check"
	"repro/internal/core"
)

// refSummary is the map-based fleet summary the row ledgers replaced:
// per-UID sums in maps, one label map shared by both ledgers, and a
// render that sorts each map's keys and backfills missing labels. It
// stays here as the reference Summary must match bit for bit.
type refSummary struct {
	Devices, Failed, Detected int
	TotalDrainedJ, TotalSimH  float64
	EnergyByUID               map[app.UID]float64
	CollateralByUID           map[app.UID]float64
	AttacksByVector           map[core.Vector]int
	Attacks                   int
	Labels                    map[app.UID]string
	Violations                int
	ViolationsByInvariant     map[check.Invariant]int
	Failures                  []Failure
}

func (s *refSummary) fold(r *Result) {
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

func (s *refSummary) label(row LedgerRow) {
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

func (s *refSummary) merge(o *refSummary) {
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

func (s *refSummary) backfillLabels() {
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

func refSortedUIDs(m map[app.UID]float64) []app.UID {
	uids := make([]app.UID, 0, len(m))
	for uid := range m {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	return uids
}

func (s *refSummary) render(seed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Fleet: %d devices, seed %d ===\n", s.Devices, seed)
	fmt.Fprintf(&b, "outcome:   %d ok, %d failed\n", s.Devices-s.Failed, s.Failed)
	ok := s.Devices - s.Failed
	var mean, rate float64
	if ok > 0 {
		mean, rate = s.TotalDrainedJ/float64(ok), float64(s.Detected)/float64(ok)
	}
	fmt.Fprintf(&b, "drain:     %.3f J total, %.3f J mean/device\n", s.TotalDrainedJ, mean)
	fmt.Fprintf(&b, "attacks:   %d total, detection rate %.1f%%\n", s.Attacks, rate*100)
	if s.Violations > 0 {
		fmt.Fprintf(&b, "checks:    %d invariant violations\n", s.Violations)
		invs := make([]check.Invariant, 0, len(s.ViolationsByInvariant))
		for inv := range s.ViolationsByInvariant {
			invs = append(invs, inv)
		}
		sort.Slice(invs, func(i, j int) bool { return invs[i] < invs[j] })
		b.WriteString("  by invariant:")
		for _, inv := range invs {
			fmt.Fprintf(&b, " %s=%d", inv, s.ViolationsByInvariant[inv])
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
			fmt.Fprintf(&b, " %s=%d", v, s.AttacksByVector[v])
		}
		b.WriteString("\n")
	}
	if len(s.EnergyByUID) > 0 {
		b.WriteString("energy by app (fleet total):\n")
		for _, uid := range refSortedUIDs(s.EnergyByUID) {
			fmt.Fprintf(&b, "  %-24s %12.3f J\n", s.Labels[uid], s.EnergyByUID[uid])
		}
	}
	if len(s.CollateralByUID) > 0 {
		b.WriteString("collateral by driving app (fleet total):\n")
		for _, uid := range refSortedUIDs(s.CollateralByUID) {
			fmt.Fprintf(&b, "  %-24s %12.3f J\n", s.Labels[uid], s.CollateralByUID[uid])
		}
	}
	return b.String()
}

// refSummarize folds results through the reference over the same tree
// summarize uses.
func refSummarize(results []Result) refSummary {
	var final refSummary
	for start := 0; start < len(results); start += blockSize {
		var bs refSummary
		for i := start; i < min(start+blockSize, len(results)); i++ {
			bs.fold(&results[i])
		}
		final.merge(&bs)
	}
	final.backfillLabels()
	return final
}

// refResults builds n seeded random device results: pseudo-UIDs
// -3..-1 and app UIDs from 10000 up, each with one fixed non-empty
// label that about a quarter of its rows leave empty (one UID no device
// names), UIDs that appear only in the energy or only in the collateral
// ledger, joules spread over twelve decades so the sums depend on their
// order, and a few failed devices.
func refResults(n int, seed int64) []Result {
	const unnamed = app.UID(10039)
	rng := rand.New(rand.NewSource(seed))
	var uids []app.UID
	for u := app.UID(-3); u < 0; u++ {
		uids = append(uids, u)
	}
	for u := app.UID(10000); u < 10040; u++ {
		uids = append(uids, u)
	}
	label := func(u app.UID) string {
		if rng.Intn(4) == 0 || u == unnamed {
			return ""
		}
		return fmt.Sprintf("app-%d", u)
	}
	joules := func() float64 { return rng.Float64() * math.Pow(10, float64(rng.Intn(12)-4)) }
	rows := func(pool []app.UID, p float64) []LedgerRow {
		var out []LedgerRow
		for _, u := range pool {
			if rng.Float64() < p {
				out = append(out, LedgerRow{UID: u, J: joules(), Label: label(u)})
			}
		}
		return out
	}
	energyOnly, collateralOnly, both := uids[:30], uids[30:36], uids[36:]
	energyPool := slices.Concat(energyOnly, both)
	collateralPool := slices.Concat(collateralOnly, both)
	vectors := []core.Vector{core.VectorActivity, core.VectorServiceStart, core.VectorScreen}
	invs := []check.Invariant{check.InvConservation, check.InvLifecycle}
	rs := make([]Result, n)
	for i := range rs {
		r := &rs[i]
		r.Index, r.Seed = i, int64(i)
		if rng.Intn(50) == 0 {
			r.Err = errForTest(fmt.Sprintf("device %d down", i))
			continue
		}
		r.DrainedJ = joules()
		r.SimEnd = 1e9 * 3600
		r.Energy = rows(energyPool, 0.8)
		if rng.Intn(3) == 0 {
			r.Collateral = rows(collateralPool, 0.5)
			r.Attacks = 1 + rng.Intn(3)
			r.Detected = true
			r.AttacksByVector = map[core.Vector]int{vectors[rng.Intn(len(vectors))]: r.Attacks}
		}
		if rng.Intn(40) == 0 {
			r.Violations = []check.Violation{{Invariant: invs[rng.Intn(len(invs))]}}
		}
	}
	return rs
}

// TestSummaryMatchesMapReference: over three fold blocks of random
// devices, the row ledgers render byte for byte what the map-based
// summary rendered and carry every UID's joules bit for bit.
func TestSummaryMatchesMapReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rs := refResults(2*blockSize+600, seed)
		got, ref := summarize(rs), refSummarize(rs)
		if g, w := got.Render(seed), ref.render(seed); g != w {
			t.Fatalf("seed %d: render differs from the map reference:\n--- got\n%s\n--- want\n%s", seed, g, w)
		}
		for _, c := range []struct {
			name string
			rows []LedgerRow
			ref  map[app.UID]float64
		}{
			{"energy", got.Energy, ref.EnergyByUID},
			{"collateral", got.Collateral, ref.CollateralByUID},
		} {
			if len(c.rows) != len(c.ref) {
				t.Fatalf("seed %d: %s has %d rows, reference %d UIDs", seed, c.name, len(c.rows), len(c.ref))
			}
			for k, row := range c.rows {
				if k > 0 && c.rows[k-1].UID >= row.UID {
					t.Fatalf("seed %d: %s rows out of UID order at %d", seed, c.name, k)
				}
				if w, ok := c.ref[row.UID]; !ok || math.Float64bits(row.J) != math.Float64bits(w) {
					t.Fatalf("seed %d: %s uid %d J = %v, reference %v", seed, c.name, row.UID, row.J, w)
				}
			}
		}
	}
}
