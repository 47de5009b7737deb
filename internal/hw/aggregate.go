package hw

import (
	"fmt"
	"sort"

	"repro/internal/app"
)

// Demand is the hardware load one framework entity (a live activity, a
// running service) places on the device.
type Demand struct {
	CPUUtil float64
	Camera  bool
	GPS     bool
	WiFi    bool
	Audio   bool
}

type demandEntry struct {
	uid    app.UID
	demand Demand
}

// Aggregator sums per-entity hardware demands into per-UID meter state.
// The activity and service managers both contribute entries (keyed by
// their records), so a UID's CPU utilization is the sum of all of its
// live components' demands.
type Aggregator struct {
	meter   *Meter
	entries map[any]demandEntry
	cpu     map[app.UID]float64
	// order holds the live entry keys in insertion order, so iteration
	// (EachEntry) is deterministic without per-call sorting. Churn is
	// lifecycle-rate, not per-interval, so the linear delete in Clear is
	// cheap relative to the transitions it rides on.
	order []any
	// gen counts entry changes: every successful Set or Clear.
	gen uint64
}

// NewAggregator returns an aggregator driving the given meter.
func NewAggregator(meter *Meter) (*Aggregator, error) {
	if meter == nil {
		return nil, fmt.Errorf("hw: nil meter")
	}
	return &Aggregator{
		meter:   meter,
		entries: make(map[any]demandEntry),
		cpu:     make(map[app.UID]float64),
	}, nil
}

// Set records (or replaces) the demand contributed by key on behalf of
// uid. A zero demand still counts as an entry; use Clear to remove it.
// Changing the uid for an existing key is rejected: records never migrate
// between apps.
func (g *Aggregator) Set(key any, uid app.UID, d Demand) error {
	if key == nil {
		return fmt.Errorf("hw: nil aggregator key")
	}
	prev, existed := g.entries[key]
	if existed && prev.uid != uid {
		return fmt.Errorf("hw: aggregator key moved from uid %d to %d", prev.uid, uid)
	}
	if d.CPUUtil < 0 {
		d.CPUUtil = 0
	}
	if d.CPUUtil > 1 {
		d.CPUUtil = 1
	}
	// Validate the hold transitions before mutating anything: the only
	// fallible half of a transition is a release without a matching
	// meter hold (Hold on a peripheral never fails), so checking those
	// up front makes Set atomic — a failed call leaves entries, CPU
	// sums and meter holds exactly as they were.
	if err := g.validateHolds(uid, prev.demand, d); err != nil {
		return err
	}
	g.entries[key] = demandEntry{uid: uid, demand: d}
	if !existed {
		g.order = append(g.order, key)
	}
	g.gen++
	g.recomputeCPU(uid)
	g.mustApplyHolds(uid, prev.demand, d)
	return nil
}

// Clear removes the demand contributed by key. Clearing an absent key is
// a no-op. Like Set, a failed Clear leaves state unchanged.
func (g *Aggregator) Clear(key any) error {
	prev, ok := g.entries[key]
	if !ok {
		return nil
	}
	if err := g.validateHolds(prev.uid, prev.demand, Demand{}); err != nil {
		return err
	}
	delete(g.entries, key)
	for i, k := range g.order {
		if k == key {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	g.gen++
	g.recomputeCPU(prev.uid)
	g.mustApplyHolds(prev.uid, prev.demand, Demand{})
	return nil
}

// holdTransitions enumerates the peripheral flags of a was→is demand
// change in fixed component order.
func holdTransitions(was, is Demand) [4]struct {
	c       Component
	was, is bool
} {
	return [4]struct {
		c       Component
		was, is bool
	}{
		{Camera, was.Camera, is.Camera},
		{GPS, was.GPS, is.GPS},
		{WiFi, was.WiFi, is.WiFi},
		{Audio, was.Audio, is.Audio},
	}
}

// validateHolds confirms every release a was→is transition implies is
// backed by a live meter hold, without touching any state.
func (g *Aggregator) validateHolds(uid app.UID, was, is Demand) error {
	for _, t := range holdTransitions(was, is) {
		if t.was && !t.is && !g.meter.Holding(t.c, uid) {
			return fmt.Errorf("hw: aggregator cannot release %v for uid %d: not held", t.c, uid)
		}
	}
	return nil
}

// mustApplyHolds applies a pre-validated transition; any residual meter
// error indicates aggregator/meter state corruption, which must not be
// half-applied silently.
func (g *Aggregator) mustApplyHolds(uid app.UID, was, is Demand) {
	for _, t := range holdTransitions(was, is) {
		if err := g.applyHold(t.c, uid, t.was, t.is); err != nil {
			panic(fmt.Sprintf("hw: validated hold transition failed: %v", err))
		}
	}
}

// recomputeCPU re-sums uid's utilization from scratch. Recomputing (as
// opposed to applying deltas) keeps the total exactly equal to the sum of
// live entries, with no floating-point drift across churn. The values
// are sorted before summation: map iteration order would otherwise
// reorder floating-point additions and break bit-determinism.
func (g *Aggregator) recomputeCPU(uid app.UID) {
	var utils []float64
	for _, e := range g.entries {
		if e.uid == uid {
			utils = append(utils, e.demand.CPUUtil)
		}
	}
	sort.Float64s(utils)
	var total float64
	for _, u := range utils {
		total += u
	}
	if total == 0 {
		delete(g.cpu, uid)
	} else {
		g.cpu[uid] = total
	}
	g.meter.SetCPUUtil(uid, total) // meter clamps to [0,1]
}

func (g *Aggregator) applyHold(c Component, uid app.UID, was, is bool) error {
	switch {
	case !was && is:
		return g.meter.Hold(c, uid)
	case was && !is:
		return g.meter.Release(c, uid)
	}
	return nil
}

// CPUUtil reports the aggregate (unclamped) utilization for uid.
func (g *Aggregator) CPUUtil(uid app.UID) float64 { return g.cpu[uid] }

// Has reports whether key currently contributes a demand entry. The
// check subsystem uses it to assert that dead components hold nothing.
func (g *Aggregator) Has(key any) bool {
	_, ok := g.entries[key]
	return ok
}

// Generation reports how many times Set or Clear has changed the
// entries. Between two equal readings EachEntry yields the same keys,
// UIDs and demands, so a consumer can cache what it derives from them.
func (g *Aggregator) Generation() uint64 { return g.gen }

// Entries reports the number of live demand entries.
func (g *Aggregator) Entries() int { return len(g.entries) }

// EachEntry calls fn for every live demand entry in insertion order —
// a deterministic order with no per-call sorting. The observability
// flame-graph collector uses it to split a UID's metered energy across
// the framework entities that demanded it.
func (g *Aggregator) EachEntry(fn func(key any, uid app.UID, d Demand)) {
	for _, k := range g.order {
		e := g.entries[k]
		fn(k, e.uid, e.demand)
	}
}

// Audit recomputes every per-UID CPU sum from the live entries and
// compares it against both the cached totals and the meter's clamped
// view, returning a descriptive error on the first inconsistency
// (checked in sorted UID order, so failures are deterministic). The
// recomputation uses the same sorted-order summation as recomputeCPU,
// so agreement is exact, not epsilon-based. O(entries + uids); the
// check subsystem calls it on lifecycle transitions and at run end.
func (g *Aggregator) Audit() error {
	want := make(map[app.UID][]float64)
	for _, e := range g.entries {
		want[e.uid] = append(want[e.uid], e.demand.CPUUtil)
	}
	uids := make([]app.UID, 0, len(want)+len(g.cpu))
	for uid := range want {
		uids = append(uids, uid)
	}
	for uid := range g.cpu {
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
		cached, ok := g.cpu[uid]
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
