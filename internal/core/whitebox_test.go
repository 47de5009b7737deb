package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/sim"
)

// wbFixture builds a monitor with three plain apps for direct white-box
// manipulation of attack state.
func wbFixture(t *testing.T) (*sim.Engine, *app.PackageManager, *Monitor, [3]app.UID) {
	t.Helper()
	e := sim.NewEngine()
	pm := app.NewPackageManager()
	var uids [3]app.UID
	for i, pkg := range []string{"com.a", "com.b", "com.c"} {
		a := pm.MustInstall(manifest.NewBuilder(pkg, pkg).Activity("Main", true).MustBuild())
		uids[i] = a.UID
	}
	m, err := NewMonitor(e, pm, Complete)
	if err != nil {
		t.Fatal(err)
	}
	return e, pm, m, uids
}

func interval(perUID map[app.UID]float64, screenJ float64) hw.Interval {
	iv := hw.Interval{ScreenJ: screenJ}
	for uid, j := range perUID {
		iv.Row(uid).Add(hw.CPU, j)
	}
	return iv
}

func TestAncestorsOfChain(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b, c := u[0], u[1], u[2]
	m.beginAttack(VectorServiceBind, a, b, "ab")
	m.beginAttack(VectorActivity, b, c, "bc")
	anc := m.ancestorsOf(c)
	if len(anc) != 2 || anc[0] != a || anc[1] != b {
		t.Fatalf("ancestors(c) = %v, want [a b]", anc)
	}
	if got := m.ancestorsOf(a); len(got) != 0 {
		t.Fatalf("ancestors(a) = %v, want none", got)
	}
}

func TestAncestorsOfCycleSafe(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b := u[0], u[1]
	// A drives B and B drives A: the walk must terminate.
	m.beginAttack(VectorServiceBind, a, b, "ab")
	m.beginAttack(VectorServiceBind, b, a, "ba")
	if anc := m.ancestorsOf(a); len(anc) != 1 || anc[0] != b {
		t.Fatalf("ancestors(a) = %v", anc)
	}
	if anc := m.ancestorsOf(b); len(anc) != 1 || anc[0] != a {
		t.Fatalf("ancestors(b) = %v", anc)
	}
	// A cyclic pair never charges a party for its own energy.
	m.Accrue(interval(map[app.UID]float64{a: 1, b: 2}, 0))
	for _, e := range m.CollateralMap(a) {
		if e.Driven == a {
			t.Fatal("a charged for itself")
		}
	}
}

func TestBeginAttackReplacesIdentical(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b := u[0], u[1]
	first := m.beginAttack(VectorActivity, a, b, nil)
	second := m.beginAttack(VectorActivity, a, b, nil)
	if first.Active {
		t.Fatal("EndLastAttack: identical attack should have been ended")
	}
	if !second.Active {
		t.Fatal("replacement attack should be active")
	}
	if len(m.ActiveAttacks()) != 1 {
		t.Fatalf("active = %d", len(m.ActiveAttacks()))
	}
}

func TestServiceBeginPullsExistingElements(t *testing.T) {
	// Algorithm 1's service clause: when A binds B and B already drives
	// C, C's element appears in A's map immediately.
	_, _, m, u := wbFixture(t)
	a, b, c := u[0], u[1], u[2]
	m.beginAttack(VectorActivity, b, c, "bc")
	m.beginAttack(VectorServiceBind, a, b, "ab")
	found := false
	for _, e := range m.CollateralMap(a) {
		if e.Driven == c {
			found = true
		}
	}
	if !found {
		t.Fatalf("A's map lacks C after service bind: %+v", m.CollateralMap(a))
	}
}

func TestChargeFullToEach(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b, c := u[0], u[1], u[2]
	// A and B independently attack C.
	m.beginAttack(VectorActivity, a, c, "ac")
	m.beginAttack(VectorServiceBind, b, c, "bc")
	m.Accrue(interval(map[app.UID]float64{c: 10}, 0))
	if got := entry(m, a, c); got != 10 {
		t.Fatalf("a charged %v, want full 10", got)
	}
	if got := entry(m, b, c); got != 10 {
		t.Fatalf("b charged %v, want full 10", got)
	}
}

func TestChargeSplit(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b, c := u[0], u[1], u[2]
	if err := m.SetChargePolicy(ChargeSplit); err != nil {
		t.Fatal(err)
	}
	m.beginAttack(VectorActivity, a, c, "ac")
	m.beginAttack(VectorServiceBind, b, c, "bc")
	m.Accrue(interval(map[app.UID]float64{c: 10}, 0))
	if got := entry(m, a, c); got != 5 {
		t.Fatalf("a charged %v, want split 5", got)
	}
	if got := entry(m, b, c); got != 5 {
		t.Fatalf("b charged %v, want split 5", got)
	}
	// Under split, the superimposed total never exceeds the source.
	if total := m.CollateralJ(a) + m.CollateralJ(b); total > 10 {
		t.Fatalf("split total %v exceeds source", total)
	}
}

func TestSetChargePolicyValidation(t *testing.T) {
	_, _, m, _ := wbFixture(t)
	if err := m.SetChargePolicy(ChargePolicy(0)); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if m.ChargePolicy() != ChargeFullToEach {
		t.Fatal("default policy should be full-to-each")
	}
	if ChargeFullToEach.String() != "full-to-each" || ChargeSplit.String() != "split" {
		t.Fatal("policy names")
	}
	if !strings.Contains(ChargePolicy(9).String(), "9") {
		t.Fatal("unknown policy stringer")
	}
}

func TestScreenDeltaChargedToScreenAttacker(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a := u[0]
	m.beginAttack(VectorScreen, a, app.UIDScreen, nil)
	m.Accrue(interval(nil, 7))
	if got := entry(m, a, app.UIDScreen); got != 7 {
		t.Fatalf("screen charge = %v, want 7", got)
	}
}

func TestZeroDeltaChargesNothing(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b := u[0], u[1]
	m.beginAttack(VectorActivity, a, b, nil)
	m.Accrue(interval(map[app.UID]float64{}, 0))
	if got := m.CollateralJ(a); got != 0 {
		t.Fatalf("charged %v from empty interval", got)
	}
}

func TestEndedAttackKeepsAccumulatedEnergy(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b := u[0], u[1]
	atk := m.beginAttack(VectorActivity, a, b, nil)
	m.Accrue(interval(map[app.UID]float64{b: 4}, 0))
	m.endAttack(atk)
	m.Accrue(interval(map[app.UID]float64{b: 100}, 0))
	if got := entry(m, a, b); got != 4 {
		t.Fatalf("post-end accrual changed entry: %v", got)
	}
}

func TestEntriesWithActiveLinks(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b, c := u[0], u[1], u[2]
	m.beginAttack(VectorActivity, a, b, "ab")
	atk := m.beginAttack(VectorActivity, a, c, "ac")
	got := m.entriesWithActiveLinks(a)
	if len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("entries = %v", got)
	}
	m.endAttack(atk)
	got = m.entriesWithActiveLinks(a)
	if len(got) != 1 || got[0] != b {
		t.Fatalf("entries after end = %v", got)
	}
}

// TestCollateralJMatchesCollateralMap: the total sums in the map view's
// order (energy descending, then driven UID), never in Go's randomized
// map order. With entries {1e16, 1, 1} the two orders round apart:
// (1e16+1)+1 is 1e16, 1+1+1e16 is 1e16+2.
func TestCollateralJMatchesCollateralMap(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a := u[0]
	for d, j := range map[app.UID]float64{u[1]: 1e16, u[2]: 1, app.UIDScreen: 1} {
		m.ensureEntry(a, d)
		m.maps[a][d].EnergyJ = j
	}
	var want float64
	for _, e := range m.CollateralMap(a) {
		want += e.EnergyJ
	}
	for i := 0; i < 100; i++ {
		if got := m.CollateralJ(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: CollateralJ = %v, CollateralMap sums to %v", i, got, want)
		}
	}
}

func entry(m *Monitor, g, d app.UID) float64 {
	for _, e := range m.CollateralMap(g) {
		if e.Driven == d {
			return e.EnergyJ
		}
	}
	return 0
}

// A warm Accrue over a live chain a→b→c plus a screen attack allocates
// nothing: it walks the live list in place and reuses its buffers, and
// this path runs on every integrated interval while any attack is live.
func TestAccrueAllocatesNothing(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b, c := u[0], u[1], u[2]
	m.beginAttack(VectorServiceBind, a, b, "ab")
	m.beginAttack(VectorServiceBind, b, c, "bc")
	m.beginAttack(VectorScreen, a, app.UIDScreen, nil)
	iv := interval(map[app.UID]float64{a: 1, b: 2, c: 3}, 4)
	m.Accrue(iv)
	if allocs := testing.AllocsPerRun(100, func() { m.Accrue(iv) }); allocs != 0 {
		t.Fatalf("Accrue allocated %.1f times per interval, want 0", allocs)
	}
	// 102 intervals: the first, AllocsPerRun's warm-up and 100 timed.
	for _, w := range []struct {
		g, d app.UID
		j    float64
	}{{a, b, 2 * 102}, {a, c, 3 * 102}, {b, c, 3 * 102}, {a, app.UIDScreen, 4 * 102}} {
		if got := entry(m, w.g, w.d); got != w.j {
			t.Fatalf("entry %d->%d = %v, want %v", w.g, w.d, got, w.j)
		}
	}
}

// Beginning an attack and ending it through endWhere allocates only the
// new Attack record once the monitor is warm: every cross-app activity
// start pays this.
func TestBeginEndAllocatesOnlyTheAttack(t *testing.T) {
	_, _, m, u := wbFixture(t)
	a, b, c := u[0], u[1], u[2]
	m.beginAttack(VectorServiceBind, a, b, "ab")
	beginEnd := func() {
		atk := m.beginAttack(VectorActivity, b, c, nil)
		m.endWhere(func(x *Attack) bool { return x == atk })
		if atk.Active {
			t.Fatal("endWhere left the attack active")
		}
	}
	beginEnd()
	if allocs := testing.AllocsPerRun(100, beginEnd); allocs > 1 {
		t.Fatalf("begin + endWhere allocated %.1f times, want at most 1", allocs)
	}
	if n := len(m.ActiveAttacks()); n != 1 {
		t.Fatalf("%d live attacks, want the a->b one", n)
	}
}
