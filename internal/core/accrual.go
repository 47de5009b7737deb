package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/app"
	"repro/internal/hw"
)

var _ hw.Sink = (*Monitor)(nil)

// ChargePolicy selects how a driven party's energy is superimposed onto
// the apps driving it. The paper's strategy is straightforward — "counts
// the driven app's energy consumption in the attack period to the
// driving app", i.e. each driver is charged in full — and notes that "a
// sophisticated policy could be easily applied"; ChargeSplit is one such
// refinement.
type ChargePolicy int

// Charge policies.
const (
	// ChargeFullToEach charges every driving app (and chain ancestor)
	// the driven party's full energy — the paper's policy.
	ChargeFullToEach ChargePolicy = iota + 1
	// ChargeSplit divides the driven party's energy equally among the
	// beneficiaries, so the superimposed total never exceeds the energy
	// actually drawn.
	ChargeSplit
)

func (p ChargePolicy) String() string {
	switch p {
	case ChargeFullToEach:
		return "full-to-each"
	case ChargeSplit:
		return "split"
	}
	return fmt.Sprintf("ChargePolicy(%d)", int(p))
}

// SetChargePolicy selects the collateral charge policy (default
// ChargeFullToEach, the paper's).
func (m *Monitor) SetChargePolicy(p ChargePolicy) error {
	if p != ChargeFullToEach && p != ChargeSplit {
		return fmt.Errorf("core: invalid charge policy %d", int(p))
	}
	m.chargePolicy = p
	return nil
}

// ChargePolicy reports the active policy.
func (m *Monitor) ChargePolicy() ChargePolicy {
	if m.chargePolicy == 0 {
		return ChargeFullToEach
	}
	return m.chargePolicy
}

// Accrue implements hw.Sink: for every integrated interval it
// superimposes each driven party's energy onto the collateral maps of
// every app currently driving it — directly or through an active attack
// chain (the paper's hybrid attack: "it is reasonable to charge the
// energy drained by C and the screen to A").
//
// A (beneficiary, driven) pair is charged at most once per interval:
// the driven parties are deduplicated and each one's beneficiaries are
// its distinct ancestors, so multi-collateral attacks (Fig. 6: start +
// bind + interrupt on the same victim) never double-charge the same
// driving app. The monitor keeps no energy ledger of its own; the
// revised views take original energy from the baseline accountant.
func (m *Monitor) Accrue(iv hw.Interval) {
	if m.mode != Complete || len(m.active) == 0 {
		return
	}
	drivens := m.drivens[:0]
	for _, a := range m.active {
		drivens = append(drivens, a.Driven)
	}
	slices.Sort(drivens)
	drivens = slices.Compact(drivens)
	m.drivens = drivens

	for _, d := range drivens {
		var delta float64
		if d == app.UIDScreen {
			delta = iv.ScreenJ
		} else {
			delta = iv.AppJ(d)
		}
		if delta == 0 {
			continue
		}
		// Every direct driver and every transitive ancestor, never d
		// itself, is charged once.
		beneficiaries := m.ancestorsOf(d)
		share := delta
		if m.ChargePolicy() == ChargeSplit && len(beneficiaries) > 0 {
			share = delta / float64(len(beneficiaries))
		}
		for _, g := range beneficiaries {
			m.ensureEntry(g, d)
			m.maps[g][d].EnergyJ += share
		}
	}
}

// CollateralMap returns the driving app's collateral energy map entries,
// sorted by descending energy then driven UID.
func (m *Monitor) CollateralMap(driving app.UID) []MapEntry {
	es := m.sortedEntries(driving)
	out := make([]MapEntry, len(es))
	for i, e := range es {
		out[i] = *e
	}
	return out
}

// CollateralJ reports the total collateral energy charged to driving,
// summed in CollateralMap's order, so the two agree bit for bit.
func (m *Monitor) CollateralJ(driving app.UID) float64 {
	var t float64
	for _, e := range m.sortedEntries(driving) {
		t += e.EnergyJ
	}
	return t
}

// sortedEntries returns driving's map entries by descending energy then
// driven UID, in a reused buffer valid until the next call.
func (m *Monitor) sortedEntries(driving app.UID) []*MapEntry {
	es := m.entryScratch[:0]
	for _, e := range m.maps[driving] {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b *MapEntry) int {
		return cmp.Or(cmp.Compare(b.EnergyJ, a.EnergyJ), cmp.Compare(a.Driven, b.Driven))
	})
	m.entryScratch = es
	return es
}

// Drivers returns every app that owns a collateral map, in ascending
// UID order. The slice is borrowed and must not be modified; it stays
// valid until the monitor next charges a new driver. The observability
// watchdog walks it at every window close.
func (m *Monitor) Drivers() []app.UID { return m.drivers }

// Breakdown is one row of the revised battery interface: the app's
// original (policy-attributed) energy plus its collateral inventory.
type Breakdown struct {
	UID        app.UID
	OriginalJ  float64
	Collateral []MapEntry
	TotalJ     float64
}

// BreakdownFor builds the revised view row for one app given its
// original policy-attributed energy (from an accounting.Accountant).
func (m *Monitor) BreakdownFor(uid app.UID, originalJ float64) Breakdown {
	col := m.CollateralMap(uid)
	total := originalJ
	for _, e := range col {
		total += e.EnergyJ
	}
	return Breakdown{UID: uid, OriginalJ: originalJ, Collateral: col, TotalJ: total}
}
