package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/hw"
)

// refCollateral is the nested-map collateral store the monitor's
// per-driver slices replaced (driving -> driven -> entry), with its
// sorted view and total, kept as the reference they must match bit for
// bit.
type refCollateral struct {
	maps map[app.UID]map[app.UID]*MapEntry
}

func newRefCollateral() *refCollateral {
	return &refCollateral{maps: make(map[app.UID]map[app.UID]*MapEntry)}
}

func (r *refCollateral) entry(driving, driven app.UID) *MapEntry {
	mp := r.maps[driving]
	if mp == nil {
		mp = make(map[app.UID]*MapEntry)
		r.maps[driving] = mp
	}
	if mp[driven] == nil {
		mp[driven] = &MapEntry{Driven: driven}
	}
	return mp[driven]
}

func (r *refCollateral) collateralMap(driving app.UID) []MapEntry {
	var es []*MapEntry
	for _, e := range r.maps[driving] {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b *MapEntry) int {
		return cmp.Or(cmp.Compare(b.EnergyJ, a.EnergyJ), cmp.Compare(a.Driven, b.Driven))
	})
	out := make([]MapEntry, len(es))
	for i, e := range es {
		out[i] = *e
	}
	return out
}

func (r *refCollateral) collateralJ(driving app.UID) float64 {
	var t float64
	for _, e := range r.collateralMap(driving) {
		t += e.EnergyJ
	}
	return t
}

// accrue charges one interval the way Monitor.Accrue did over the
// nested maps, reading m's live attacks.
func (r *refCollateral) accrue(m *Monitor, iv hw.Interval) {
	seen := map[app.UID]bool{}
	var drivens []app.UID
	for _, a := range m.active {
		if !seen[a.Driven] {
			seen[a.Driven] = true
			drivens = append(drivens, a.Driven)
		}
	}
	slices.Sort(drivens)
	for _, d := range drivens {
		delta := iv.AppJ(d)
		if d == app.UIDScreen {
			delta = iv.ScreenJ
		}
		if delta == 0 {
			continue
		}
		beneficiaries := m.ancestorsOf(d)
		share := delta
		if m.ChargePolicy() == ChargeSplit && len(beneficiaries) > 0 {
			share = delta / float64(len(beneficiaries))
		}
		for _, g := range beneficiaries {
			r.entry(g, d).EnergyJ += share
		}
	}
}

// mustMatchCollateral fails unless m's drivers, maps and totals equal
// the reference's, float bits included.
func mustMatchCollateral(t *testing.T, what string, m *Monitor, r *refCollateral) {
	t.Helper()
	var drivers []app.UID
	for g := range r.maps {
		drivers = append(drivers, g)
	}
	slices.Sort(drivers)
	if !slices.Equal(m.Drivers(), drivers) {
		t.Fatalf("%s: drivers %v, reference %v", what, m.Drivers(), drivers)
	}
	for _, g := range drivers {
		got, want := m.CollateralMap(g), r.collateralMap(g)
		if len(got) != len(want) {
			t.Fatalf("%s: driver %d map %v, reference %v", what, g, got, want)
		}
		for i := range want {
			if got[i].Driven != want[i].Driven || math.Float64bits(got[i].EnergyJ) != math.Float64bits(want[i].EnergyJ) {
				t.Fatalf("%s: driver %d map %v, reference %v", what, g, got, want)
			}
		}
		if gj, wj := m.CollateralJ(g), r.collateralJ(g); math.Float64bits(gj) != math.Float64bits(wj) {
			t.Fatalf("%s: driver %d CollateralJ %v, reference %v", what, g, gj, wj)
		}
	}
}

// TestCollateralStoreMatchesReference applies the same charge sequences
// to the monitor's store and to the nested maps: {1e16, 1, 1} under one
// driver, energy ties broken by driven UID, UIDScreen as the driven
// party, a driver inserted between existing ones, then a long seeded
// sequence over a small UID pool whose magnitudes round differently in
// any other summation order.
func TestCollateralStoreMatchesReference(t *testing.T) {
	_, _, m, u := wbFixture(t)
	r := newRefCollateral()
	charge := func(what string, g, d app.UID, j float64) {
		t.Helper()
		m.entryFor(g, d).EnergyJ += j
		r.entry(g, d).EnergyJ += j
		mustMatchCollateral(t, what, m, r)
	}
	a, b, c := u[0], u[1], u[2]
	charge("1e16", a, b, 1e16)
	charge("1e16", a, c, 1)
	charge("1e16", a, app.UIDScreen, 1)
	charge("tie", c, a, 2)
	charge("tie", c, b, 2)
	charge("tie", c, app.UIDScreen, 2)
	charge("driver between", b, app.UIDScreen, 0.5)

	pool := []app.UID{a, b, c, a + 7, a + 3, app.UIDScreen}
	mags := []float64{1e16, 1, 0.1, 3, 1e-3, 2}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		g := pool[rng.Intn(len(pool)-1)] // the screen never drives
		d := pool[rng.Intn(len(pool))]
		if g == d {
			continue
		}
		charge(fmt.Sprintf("step %d", i), g, d, mags[rng.Intn(len(mags))])
	}
}

// TestAccrueMatchesReference runs Accrue and the nested-map accrual over
// the same live attacks — a chain c->a->b, c driving the screen, the
// a->b link ended mid-run, then b driving c and the screen, a driver
// that sorts between a and c — under both charge policies, comparing
// after every interval.
func TestAccrueMatchesReference(t *testing.T) {
	for _, policy := range []ChargePolicy{ChargeFullToEach, ChargeSplit} {
		_, _, m, u := wbFixture(t)
		if err := m.SetChargePolicy(policy); err != nil {
			t.Fatal(err)
		}
		r := newRefCollateral()
		// begin starts an attack and gives the reference the empty
		// entries Algorithm 1 adds for it.
		begin := func(v Vector, g, d app.UID, anchor any) *Attack {
			atk := m.beginAttack(v, g, d, anchor)
			for _, g := range m.Drivers() {
				for _, e := range m.CollateralMap(g) {
					r.entry(g, e.Driven)
				}
			}
			return atk
		}
		a, b, c := u[0], u[1], u[2]
		begin(VectorServiceBind, c, a, "ca")
		ab := begin(VectorServiceBind, a, b, "ab")
		begin(VectorScreen, c, app.UIDScreen, nil)
		mustMatchCollateral(t, "begin", m, r)
		for i := 0; i < 50; i++ {
			switch i {
			case 20:
				m.endAttack(ab)
			case 30:
				begin(VectorActivity, b, c, nil)
				begin(VectorWakelock, b, app.UIDScreen, "wl")
			}
			j := float64(i%7) * 1e15
			iv := interval(map[app.UID]float64{a: j + 1, b: 1 / float64(i+1), c: 3}, float64(i%3))
			m.Accrue(iv)
			r.accrue(m, iv)
			mustMatchCollateral(t, fmt.Sprintf("%v interval %d", policy, i), m, r)
		}
	}
}
