package hw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/app"
)

// referenceAudit is Audit as it was when the aggregator kept its
// entries and cached sums in maps: it groups the live utilizations by
// UID in a map, gathers the UIDs of both tables, sorts them with
// sort.Slice and sums each UID's utilizations after sort.Float64s. The
// dense Audit must agree with it on every state.
func referenceAudit(g *Aggregator) error {
	entries := make(map[any]demandEntry, len(g.entries))
	for _, e := range g.entries {
		entries[e.key] = e
	}
	cpu := make(map[app.UID]float64, len(g.cpu))
	for _, c := range g.cpu {
		cpu[c.uid] = c.util
	}

	want := make(map[app.UID][]float64)
	for _, e := range entries {
		want[e.uid] = append(want[e.uid], e.demand.CPUUtil)
	}
	uids := make([]app.UID, 0, len(want)+len(cpu))
	for uid := range want {
		uids = append(uids, uid)
	}
	for uid := range cpu {
		if _, ok := want[uid]; !ok {
			uids = append(uids, uid)
		}
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	for _, uid := range uids {
		utils := want[uid]
		sort.Float64s(utils)
		var total float64
		for _, u := range utils {
			total += u
		}
		cached, ok := cpu[uid]
		if total == 0 && ok {
			return fmt.Errorf("hw: aggregator caches cpu %v for uid %d with no contributing demand", cached, uid)
		}
		if total != 0 && cached != total {
			return fmt.Errorf("hw: aggregator cached cpu %v for uid %d, live entries sum to %v", cached, uid, total)
		}
		clamped := total
		if clamped > 1 {
			clamped = 1
		}
		if got := g.meter.CPUUtil(uid); got != clamped {
			return fmt.Errorf("hw: meter cpu %v for uid %d, aggregator expects %v", got, uid, clamped)
		}
	}
	return nil
}

// auditsAgree fails the test unless Audit and referenceAudit return the
// same error text, or both nil. It reports whether the state was clean.
func auditsAgree(t *testing.T, g *Aggregator, step string) bool {
	t.Helper()
	want, got := fmt.Sprint(referenceAudit(g)), fmt.Sprint(g.Audit())
	if got != want {
		t.Fatalf("%s: Audit = %s, reference = %s", step, got, want)
	}
	return want == "<nil>"
}

// The sum is taken in ascending order, not insertion order: 0.3, 0.2
// and 0.1 inserted in that order sum to 0.6 left to right but to
// 0.6000000000000001 sorted, and the cached total is the sorted one.
func TestAuditSumsInSortedOrder(t *testing.T) {
	_, _, g := aggFixture(t)
	for _, u := range []float64{0.3, 0.2, 0.1} {
		if err := g.Set(new(int), 7, Demand{CPUUtil: u}); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.CPUUtil(7); got != 0.6000000000000001 {
		t.Fatalf("cached sum %v, want the sorted sum 0.6000000000000001", got)
	}
	if !auditsAgree(t, g, "sorted sum") {
		t.Fatal("a healthy table failed its audit")
	}
}

// TestAuditMatchesMapReference drives random Set/Clear scripts through
// the aggregator, injects corruptions the audit exists to catch, and
// requires the dense Audit to return exactly what the map-based
// reference returns after every step.
func TestAuditMatchesMapReference(t *testing.T) {
	utils := []float64{0, 0, 0.1, 0.2, 0.3, 0.05, 0.6, 0.8, 1, 1.5, -0.2}
	uids := []app.UID{10001, 10002, 10003, 10004}
	var clean, dirty int
	for seed := int64(1); seed <= 40; seed++ {
		_, m, g := aggFixture(t)
		rng := rand.New(rand.NewSource(seed))
		keys := make([]*int, 12)
		owner := make(map[*int]app.UID, len(keys))
		for i := range keys {
			keys[i] = new(int)
			owner[keys[i]] = uids[rng.Intn(len(uids))]
		}
		randUtil := func() float64 {
			switch rng.Intn(10) {
			case 0:
				return rng.Float64()
			case 1:
				if rng.Intn(20) == 0 {
					return math.NaN() // Set's clamp lets a NaN through
				}
			}
			return utils[rng.Intn(len(utils))]
		}
		for step := 0; step < 300; step++ {
			k := keys[rng.Intn(len(keys))]
			uid := owner[k]
			var what string
			var undo func()
			switch op := rng.Intn(20); {
			case op < 10:
				d := Demand{CPUUtil: randUtil(), Camera: rng.Intn(4) == 0, GPS: rng.Intn(4) == 0,
					WiFi: rng.Intn(6) == 0, Audio: rng.Intn(6) == 0}
				what = fmt.Sprintf("Set uid %d %+v", uid, d)
				if err := g.Set(k, uid, d); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case op < 15:
				what = fmt.Sprintf("Clear uid %d", uid)
				if err := g.Clear(k); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case op == 15:
				// A meter write that bypasses the aggregator.
				old := m.CPUUtil(uid)
				v := randUtil()
				what = fmt.Sprintf("meter bypass uid %d = %v", uid, v)
				m.SetCPUUtil(uid, v)
				undo = func() { m.SetCPUUtil(uid, old) }
			default:
				saved := slices.Clone(g.cpu)
				undo = func() { g.cpu = saved }
				switch {
				case op == 16 || len(g.cpu) == 0:
					// A stale UID: a cached sum for a UID that has
					// none, whether or not it has live entries.
					stale := uids[rng.Intn(len(uids))]
					i, ok := g.cachedAt(stale)
					if ok {
						stale = 20000 + app.UID(rng.Intn(3))
						i, _ = g.cachedAt(stale)
					}
					what = fmt.Sprintf("stale cached uid %d", stale)
					g.cpu = slices.Insert(g.cpu, i, uidCPU{uid: stale, util: randUtil()})
				case op < 18:
					i := rng.Intn(len(g.cpu))
					what = fmt.Sprintf("wrong cached sum for uid %d", g.cpu[i].uid)
					g.cpu[i].util += []float64{1e-12, 0.1, -0.3}[rng.Intn(3)]
				default:
					i := rng.Intn(len(g.cpu))
					what = fmt.Sprintf("missing cached uid %d", g.cpu[i].uid)
					g.cpu = slices.Delete(g.cpu, i, i+1)
				}
			}
			label := fmt.Sprintf("seed %d step %d (%s)", seed, step, what)
			if auditsAgree(t, g, label) {
				clean++
			} else {
				dirty++
			}
			if undo != nil {
				undo()
				auditsAgree(t, g, label+" undone")
			}
		}
	}
	if clean == 0 || dirty == 0 {
		t.Fatalf("script exercised %d clean and %d failing audits; want both", clean, dirty)
	}
}
