package hw

import (
	"cmp"
	"fmt"
	"slices"

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
	key    any
	uid    app.UID
	demand Demand
}

// uidCPU pairs a UID with a CPU utilization: a cached per-UID sum in
// Aggregator.cpu, or one entry's own demand in the audit scratch.
type uidCPU struct {
	uid  app.UID
	util float64
}

// Aggregator sums per-entity hardware demands into per-UID meter state.
// The activity and service managers both contribute entries (keyed by
// their records), so a UID's CPU utilization is the sum of all of its
// live components' demands.
//
// A device holds a handful of entries (about 4, at most 13 on a
// population fleet) and every lifecycle transition touches them, so the
// table is dense: entries in insertion order, found by a scan, and the
// cached sums in a UID-sorted slice. Set, Clear and Audit walk slices
// and reuse scratch buffers, so a transition on a warmed table
// allocates nothing.
type Aggregator struct {
	meter *Meter
	// entries holds the live demand entries in insertion order, so
	// iteration (EachEntry) is deterministic without per-call sorting.
	// Churn is lifecycle-rate, not per-interval, so the linear scan in
	// find and the shift in Clear are cheap relative to the transitions
	// they ride on.
	entries []demandEntry
	// cpu holds every UID's non-zero utilization sum, sorted by UID.
	cpu []uidCPU
	// utils and audit are recomputeCPU's and Audit's scratch.
	utils []float64
	audit []uidCPU
	// gen counts entry changes: every successful Set or Clear.
	gen uint64
}

// NewAggregator returns an aggregator driving the given meter.
func NewAggregator(meter *Meter) (*Aggregator, error) {
	if meter == nil {
		return nil, fmt.Errorf("hw: nil meter")
	}
	return &Aggregator{meter: meter}, nil
}

// find returns key's position in entries, or -1.
func (g *Aggregator) find(key any) int {
	for i := range g.entries {
		if g.entries[i].key == key {
			return i
		}
	}
	return -1
}

// Set records (or replaces) the demand contributed by key on behalf of
// uid. A zero demand still counts as an entry; use Clear to remove it.
// Changing the uid for an existing key is rejected: records never migrate
// between apps.
func (g *Aggregator) Set(key any, uid app.UID, d Demand) error {
	if key == nil {
		return fmt.Errorf("hw: nil aggregator key")
	}
	i := g.find(key)
	existed := i >= 0
	var prev Demand
	if existed {
		if was := g.entries[i].uid; was != uid {
			return fmt.Errorf("hw: aggregator key moved from uid %d to %d", was, uid)
		}
		prev = g.entries[i].demand
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
	if err := g.validateHolds(uid, prev, d); err != nil {
		return err
	}
	if existed {
		g.entries[i].demand = d
	} else {
		g.entries = append(g.entries, demandEntry{key: key, uid: uid, demand: d})
	}
	g.gen++
	g.recomputeCPU(uid)
	g.mustApplyHolds(uid, prev, d)
	return nil
}

// Clear removes the demand contributed by key. Clearing an absent key is
// a no-op. Like Set, a failed Clear leaves state unchanged.
func (g *Aggregator) Clear(key any) error {
	i := g.find(key)
	if i < 0 {
		return nil
	}
	prev := g.entries[i]
	if err := g.validateHolds(prev.uid, prev.demand, Demand{}); err != nil {
		return err
	}
	g.entries = slices.Delete(g.entries, i, i+1)
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
// are summed in ascending order, not insertion order, so a UID's total
// depends only on the multiset of its live demands; Audit sums the same
// way, which is what makes its comparison exact.
func (g *Aggregator) recomputeCPU(uid app.UID) {
	utils := g.utils[:0]
	for _, e := range g.entries {
		if e.uid == uid {
			utils = append(utils, e.demand.CPUUtil)
		}
	}
	g.utils = utils
	slices.Sort(utils)
	var total float64
	for _, u := range utils {
		total += u
	}
	i, cached := g.cachedAt(uid)
	switch {
	case total != 0 && cached:
		g.cpu[i].util = total
	case total != 0:
		g.cpu = slices.Insert(g.cpu, i, uidCPU{uid: uid, util: total})
	case cached:
		g.cpu = slices.Delete(g.cpu, i, i+1)
	}
	g.meter.SetCPUUtil(uid, total) // meter clamps to [0,1]
}

// cachedAt returns where uid's cached sum is, or would be inserted, in
// g.cpu, and whether it is there.
func (g *Aggregator) cachedAt(uid app.UID) (int, bool) {
	return slices.BinarySearchFunc(g.cpu, uid, func(c uidCPU, uid app.UID) int {
		return cmp.Compare(c.uid, uid)
	})
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
func (g *Aggregator) CPUUtil(uid app.UID) float64 {
	if i, ok := g.cachedAt(uid); ok {
		return g.cpu[i].util
	}
	return 0
}

// Has reports whether key currently contributes a demand entry. The
// check subsystem uses it to assert that dead components hold nothing.
func (g *Aggregator) Has(key any) bool { return g.find(key) >= 0 }

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
	for _, e := range g.entries {
		fn(e.key, e.uid, e.demand)
	}
}

// Audit recomputes every per-UID CPU sum from the live entries and
// compares it against both the cached totals and the meter's clamped
// view, returning a descriptive error on the first inconsistency
// (checked in ascending UID order, so failures are deterministic). It
// sorts each entry's own (UID, utilization) by UID, then by value, so
// each UID's sum is taken in recomputeCPU's ascending order and
// agreement is exact, not epsilon-based; a merge walk against the
// cached sums then visits every UID with a live entry or a cached sum.
// The check subsystem calls it on every lifecycle transition and at
// run end; on a warmed aggregator it allocates only for an error.
func (g *Aggregator) Audit() error {
	live := g.audit[:0]
	for _, e := range g.entries {
		live = append(live, uidCPU{uid: e.uid, util: e.demand.CPUUtil})
	}
	g.audit = live
	slices.SortFunc(live, func(a, b uidCPU) int {
		if c := cmp.Compare(a.uid, b.uid); c != 0 {
			return c
		}
		return cmp.Compare(a.util, b.util)
	})
	for i, j := 0, 0; i < len(live) || j < len(g.cpu); {
		var uid app.UID
		if i < len(live) {
			uid = live[i].uid
		}
		if j < len(g.cpu) && (i == len(live) || g.cpu[j].uid < uid) {
			uid = g.cpu[j].uid
		}
		var total float64
		for ; i < len(live) && live[i].uid == uid; i++ {
			total += live[i].util
		}
		var cached float64
		ok := j < len(g.cpu) && g.cpu[j].uid == uid
		if ok {
			cached = g.cpu[j].util
			j++
		}
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
