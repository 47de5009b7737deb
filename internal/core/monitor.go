package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/activity"
	"repro/internal/app"
	"repro/internal/broadcast"
	"repro/internal/display"
	"repro/internal/power"
	"repro/internal/provider"
	"repro/internal/service"
	"repro/internal/sim"
)

// Mode selects how much of E-Android is enabled, mirroring the paper's
// overhead study configurations.
type Mode int

// E-Android modes.
const (
	// FrameworkOnly records collateral events but disables the energy
	// accounting module (the paper's "E-Android framework" bars in
	// Figure 10).
	FrameworkOnly Mode = iota + 1
	// Complete enables event monitoring, attack lifecycles and the
	// collateral energy maps ("complete E-Android").
	Complete
)

func (m Mode) String() string {
	switch m {
	case FrameworkOnly:
		return "framework-only"
	case Complete:
		return "complete"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Monitor is the E-Android extension of the framework. It implements the
// hook interfaces of the activity, service, power and display managers
// plus hw.Sink, and must be registered with each.
type Monitor struct {
	engine *sim.Engine
	pm     *app.PackageManager
	mode   Mode

	foreground app.UID

	nextAttackID int
	attacks      []*Attack
	// active lists the live attacks in begin (ID) order: the accrual
	// traversal and every end-condition check walk it.
	active []*Attack

	// drivers lists every app that owns a collateral energy map, in
	// ascending order, and colls[i] is drivers[i]'s map: its entries in
	// ascending driven-UID order. Maps and entries are never removed,
	// so both only grow (see entryFor).
	drivers []app.UID
	colls   [][]MapEntry

	// screenLocks lists the live screen-type wakelocks in acquire order
	// for the Fig. 5e state machine.
	screenLocks []*power.Wakelock

	// events is the collateral event history. An activity start keeps
	// its target's FullName (cached by the activity) as its Detail, and
	// explicit holds the start's flag (bit i%64 of word i/64 for
	// events[i]); Events renders the Detail "<flag> <name>" on read, so
	// recording a start builds no string.
	events   []Event
	explicit []uint64

	// flushFn, when set, settles the energy meter before any attack
	// begins or ends, so intervals spanning an event boundary are
	// attributed at the pre-event attack state.
	flushFn func()

	// chargePolicy selects the collateral superimposition rule; zero
	// means ChargeFullToEach.
	chargePolicy ChargePolicy

	// Reusable buffers: Accrue runs on every integrated interval while
	// an attack is live, and endWhere on every lifecycle event.
	drivens   []app.UID // Accrue's distinct driven parties
	ancestors []app.UID // ancestorsOf's result
	ending    []*Attack // endWhere's matches
	// entryScratch is sortedEntries' buffer: the watchdog sums every
	// driver's map at every window close.
	entryScratch []MapEntry
}

// NewMonitor builds an E-Android monitor in the given mode. Wire it with
// AddHooks/AddSink on the framework services, then call NoteForeground
// with the current foreground app.
func NewMonitor(engine *sim.Engine, pm *app.PackageManager, mode Mode) (*Monitor, error) {
	if engine == nil || pm == nil {
		return nil, fmt.Errorf("core: nil dependency")
	}
	if mode != FrameworkOnly && mode != Complete {
		return nil, fmt.Errorf("core: invalid mode %d", int(mode))
	}
	return &Monitor{
		engine:     engine,
		pm:         pm,
		mode:       mode,
		foreground: app.UIDNone,
	}, nil
}

// Mode reports the monitor's mode.
func (m *Monitor) Mode() Mode { return m.mode }

// SetFlushFunc wires the meter's Flush so attack boundaries settle
// accounting first.
func (m *Monitor) SetFlushFunc(fn func()) { m.flushFn = fn }

func (m *Monitor) flush() {
	if m.flushFn != nil {
		m.flushFn()
	}
}

// NoteForeground seeds the foreground app (call once after wiring).
func (m *Monitor) NoteForeground(uid app.UID) { m.foreground = uid }

// NoteUninstalled closes every attack lifecycle the removed app is a
// party to: a deleted package can neither keep driving nor keep being
// driven. Its accumulated map entries persist for the record.
func (m *Monitor) NoteUninstalled(uid app.UID) {
	m.record("uninstalled", uid, uid, "package removed")
	if m.mode != Complete {
		return
	}
	m.endWhere(func(a *Attack) bool {
		return a.Driving == uid || a.Driven == uid
	})
}

// Events returns the recorded collateral event log.
func (m *Monitor) Events() []Event {
	out := make([]Event, len(m.events))
	copy(out, m.events)
	for i := range out {
		if out[i].Kind != kindActivityStart {
			continue
		}
		flag := "implicit"
		if w := i / 64; w < len(m.explicit) && m.explicit[w]&(1<<(i%64)) != 0 {
			flag = "explicit"
		}
		out[i].Detail = flag + " " + out[i].Detail
	}
	return out
}

// Attacks returns all attack records, begun order.
func (m *Monitor) Attacks() []*Attack {
	out := make([]*Attack, len(m.attacks))
	copy(out, m.attacks)
	return out
}

// ActiveAttacks returns currently active attacks, begun order.
func (m *Monitor) ActiveAttacks() []*Attack { return slices.Clone(m.active) }

// isCollateralApp reports whether uid belongs to an installed,
// non-system app — the only parties E-Android puts on the attack list.
func (m *Monitor) isCollateralApp(uid app.UID) bool {
	a := m.pm.ByUID(uid)
	return a != nil && !a.System
}

func (m *Monitor) record(kind string, driving, driven app.UID, detail string) {
	m.events = append(m.events, Event{
		T: m.engine.Now(), Kind: kind, Driving: driving, Driven: driven, Detail: detail,
	})
}

// beginAttack starts a new lifecycle, first ending any identical active
// one ("EndLastAttack" in Algorithm 1) so the same pair is never tracked
// twice by the same mechanism and anchor.
func (m *Monitor) beginAttack(v Vector, driving, driven app.UID, anchor any) *Attack {
	m.flush()
	for _, a := range m.active {
		if a.Driven == driven && a.Vector == v && a.Driving == driving && a.anchor == anchor {
			m.endAttack(a)
			break
		}
	}
	atk := &Attack{
		ID:      m.nextAttackID,
		Vector:  v,
		Driving: driving,
		Driven:  driven,
		Begin:   m.engine.Now(),
		Active:  true,
		anchor:  anchor,
	}
	m.nextAttackID++
	m.attacks = append(m.attacks, atk)
	m.active = append(m.active, atk)

	// Algorithm 1: AddElement(driven) on the driving app's map and on
	// every map that (transitively) contains the driving app.
	parents := m.ancestorsOf(driving)
	m.ensureEntry(driving, driven)
	for _, parent := range parents {
		m.ensureEntry(parent, driven)
	}
	// Service-related begin events also pull in the driven app's own
	// existing elements ("the driven app could have already bound
	// several energy intensive services before the triggered event").
	if v == VectorServiceStart || v == VectorServiceBind {
		for _, elem := range m.entriesWithActiveLinks(driven) {
			m.ensureEntry(driving, elem)
			for _, parent := range parents {
				m.ensureEntry(parent, elem)
			}
		}
	}
	return atk
}

func (m *Monitor) endAttack(a *Attack) {
	if !a.Active {
		return
	}
	m.flush()
	a.Active = false
	a.End = m.engine.Now()
	if i := slices.Index(m.active, a); i >= 0 {
		m.active = slices.Delete(m.active, i, i+1)
	}
}

// endWhere ends every active attack matching pred, in begin order. It
// scans only the live list (never the all-time history), so per-event
// cost stays proportional to the number of live attacks. The matches
// are collected before any ends: each end flushes the meter, whose
// sinks include Accrue, which walks the live list. No sink re-enters
// the monitor's hooks, so one reused buffer serves every call.
func (m *Monitor) endWhere(pred func(*Attack) bool) {
	ending := m.ending[:0]
	for _, a := range m.active {
		if pred(a) {
			ending = append(ending, a)
		}
	}
	m.ending = ending
	for _, a := range ending {
		m.endAttack(a)
	}
}

// ensureEntry adds driven to driving's collateral map (Algorithm 1's
// AddElement); an app never enters its own map.
func (m *Monitor) ensureEntry(driving, driven app.UID) {
	if driving != driven {
		m.entryFor(driving, driven)
	}
}

// entryFor returns driving's map entry for driven, adding the map and
// the entry as needed. Both are found by binary search. The pointer is
// valid until the next entry is added to driving's map.
func (m *Monitor) entryFor(driving, driven app.UID) *MapEntry {
	i, ok := slices.BinarySearch(m.drivers, driving)
	if !ok {
		m.drivers = slices.Insert(m.drivers, i, driving)
		m.colls = slices.Insert(m.colls, i, nil)
	}
	es := m.colls[i]
	j, ok := slices.BinarySearchFunc(es, driven, func(e MapEntry, d app.UID) int {
		return cmp.Compare(e.Driven, d)
	})
	if !ok {
		es = slices.Insert(es, j, MapEntry{Driven: driven})
		m.colls[i] = es
	}
	return &es[j]
}

// ancestorsOf walks active attack links upstream from uid: every app
// that currently drives uid, directly or through a chain, in ascending
// UID order and never uid itself. The walk is breadth-first with its
// own output as the queue and the visited set, so it is cycle-safe.
// The result is a reused buffer, valid until the next call.
func (m *Monitor) ancestorsOf(uid app.UID) []app.UID {
	out := append(m.ancestors[:0], uid)
	for i := 0; i < len(out); i++ {
		for _, a := range m.active {
			if a.Driven == out[i] && !slices.Contains(out, a.Driving) {
				out = append(out, a.Driving)
			}
		}
	}
	m.ancestors = out
	out = out[1:]
	slices.Sort(out)
	return out
}

// entriesWithActiveLinks returns the driven parties that uid's map holds
// live links to (i.e. uid is currently driving them), in ascending UID
// order. Only the live list is scanned.
func (m *Monitor) entriesWithActiveLinks(uid app.UID) []app.UID {
	var out []app.UID
	for _, a := range m.active {
		if a.Driving == uid {
			out = append(out, a.Driven)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// kindActivityStart is the Kind of a cross-app activity start.
const kindActivityStart = "activity-start"

// --- activity.Hooks ---

var _ activity.Hooks = (*Monitor)(nil)

// ActivityStarted implements activity.Hooks. A cross-app start begins an
// activity attack; any start of the driven app also ends its previous
// activity/interrupt attacks ("attack ends when the app is started
// again", Fig. 5a/5b).
func (m *Monitor) ActivityStarted(t sim.Time, caller app.UID, target *activity.Activity, explicit bool) {
	driven := target.App().UID
	crossApp := caller != driven
	if !crossApp {
		// Same-app starts are not collateral events; E-Android returns
		// immediately (the basis of Figure 10's "same app" bars).
		return
	}
	m.record(kindActivityStart, caller, driven, target.FullName())
	if explicit {
		i := len(m.events) - 1
		for len(m.explicit) <= i/64 {
			m.explicit = append(m.explicit, 0)
		}
		m.explicit[i/64] |= 1 << (i % 64)
	}
	if m.mode != Complete {
		return
	}
	m.endWhere(func(a *Attack) bool {
		return a.Driven == driven &&
			(a.Vector == VectorActivity || a.Vector == VectorInterrupt) &&
			a.Begin != t
	})
	if m.isCollateralApp(caller) && m.isCollateralApp(driven) {
		m.beginAttack(VectorActivity, caller, driven, nil)
	}
}

// ForegroundChanged implements activity.Hooks. The driven app coming to
// the front ends its activity/interrupt attacks; a third app forcing the
// previous foreground app into the background begins an interrupt
// attack; a background transition with unreleased screen wakelocks
// begins wakelock attacks (Fig. 5e).
func (m *Monitor) ForegroundChanged(t sim.Time, prev, cur app.UID, cause activity.Cause) {
	m.foreground = cur
	if m.mode != Complete {
		return
	}
	// "Moved to front" / "back to front" end conditions — but never for
	// attacks begun by this very event.
	m.endWhere(func(a *Attack) bool {
		return a.Driven == cur &&
			(a.Vector == VectorActivity || a.Vector == VectorInterrupt) &&
			a.Begin != t
	})
	// Interrupt attack: the initiator forced prev into the background.
	initiator := cause.Initiator
	if m.isCollateralApp(initiator) && m.isCollateralApp(prev) &&
		initiator != prev && prev != cur {
		m.record("interrupt", initiator, prev, cause.Kind.String())
		m.beginAttack(VectorInterrupt, initiator, prev, nil)
	}
	// Wakelock attacks: prev left the foreground without releasing
	// screen wakelocks.
	for _, wl := range m.screenLocks {
		if wl.Owner == prev && m.isCollateralApp(prev) {
			m.record("wakelock-background", prev, app.UIDScreen, wl.Tag)
			m.beginAttack(VectorWakelock, prev, app.UIDScreen, wl)
		}
	}
}

// Lifecycle implements activity.Hooks. When an app's last activity is
// destroyed ("popped out"), its interrupt attacks end (Fig. 5b).
func (m *Monitor) Lifecycle(t sim.Time, a *activity.Activity, old, new activity.State) {
	if m.mode != Complete || new != activity.Destroyed {
		return
	}
	uid := a.App().UID
	// The monitor does not own the task stack, so it uses process death
	// as the definitive "popped out" signal: a dead process certainly
	// has no live activities. (An alive app's interrupt attacks end on
	// the started-again / moved-to-front conditions instead.)
	owner := m.pm.ByUID(uid)
	if owner == nil || !owner.Alive() {
		m.endWhere(func(atk *Attack) bool {
			return atk.Driven == uid && atk.Vector == VectorInterrupt
		})
	}
}

// --- service.Hooks ---

var _ service.Hooks = (*Monitor)(nil)

// ServiceStarted implements service.Hooks.
func (m *Monitor) ServiceStarted(t sim.Time, caller app.UID, svc *service.Service) {
	driven := svc.App().UID
	if caller == driven {
		return
	}
	m.record("service-start", caller, driven, svc.FullName())
	if m.mode != Complete {
		return
	}
	if m.isCollateralApp(caller) && m.isCollateralApp(driven) {
		m.beginAttack(VectorServiceStart, caller, driven, svc.FullName())
	}
}

// ServiceStopped implements service.Hooks: stop/stopSelf/owner-death end
// every start-vector attack on the service.
func (m *Monitor) ServiceStopped(t sim.Time, caller app.UID, svc *service.Service, kind service.StopKind) {
	if m.mode != Complete {
		return
	}
	m.endWhere(func(a *Attack) bool {
		return a.Vector == VectorServiceStart && a.anchor == any(svc.FullName())
	})
}

// ServiceBound implements service.Hooks.
func (m *Monitor) ServiceBound(t sim.Time, conn *service.Connection) {
	driven := conn.Service().App().UID
	if conn.Client == driven {
		return
	}
	m.record("service-bind", conn.Client, driven, conn.Service().FullName())
	if m.mode != Complete {
		return
	}
	if m.isCollateralApp(conn.Client) && m.isCollateralApp(driven) {
		m.beginAttack(VectorServiceBind, conn.Client, driven, conn)
	}
}

// ServiceUnbound implements service.Hooks: the connection's attack ends.
func (m *Monitor) ServiceUnbound(t sim.Time, conn *service.Connection, cause service.UnbindCause) {
	if m.mode != Complete {
		return
	}
	m.endWhere(func(a *Attack) bool {
		return a.Vector == VectorServiceBind && a.anchor == any(conn)
	})
}

// ServiceRunning implements service.Hooks (informational only).
func (m *Monitor) ServiceRunning(t sim.Time, svc *service.Service, running bool) {}

// --- power.Hooks ---

var _ power.Hooks = (*Monitor)(nil)

// WakelockAcquired implements power.Hooks. Acquiring a screen wakelock
// while not in the foreground begins a wakelock attack immediately
// (Fig. 5e, "attack begins when acquiring not in foreground").
func (m *Monitor) WakelockAcquired(t sim.Time, wl *power.Wakelock) {
	if !wl.Type.KeepsScreenOn() {
		return
	}
	m.record("wakelock-acquire", wl.Owner, app.UIDScreen, wl.Tag)
	m.screenLocks = append(m.screenLocks, wl)
	if m.mode != Complete {
		return
	}
	if m.isCollateralApp(wl.Owner) && m.foreground != wl.Owner {
		m.beginAttack(VectorWakelock, wl.Owner, app.UIDScreen, wl)
	}
}

// WakelockReleased implements power.Hooks: release (explicit or
// link-to-death) ends the lock's attack.
func (m *Monitor) WakelockReleased(t sim.Time, wl *power.Wakelock, cause power.ReleaseCause) {
	if !wl.Type.KeepsScreenOn() {
		return
	}
	m.record("wakelock-release", wl.Owner, app.UIDScreen, wl.Tag+" "+cause.String())
	if i := slices.Index(m.screenLocks, wl); i >= 0 {
		m.screenLocks = slices.Delete(m.screenLocks, i, i+1)
	}
	if m.mode != Complete {
		return
	}
	m.endWhere(func(a *Attack) bool {
		return a.Vector == VectorWakelock && a.anchor == any(wl)
	})
}

// ScreenChanged implements power.Hooks (informational only; energy flow
// is already visible through the meter).
func (m *Monitor) ScreenChanged(t sim.Time, on bool, cause power.ScreenCause) {}

// --- broadcast.Hooks ---

var _ broadcast.Hooks = (*Monitor)(nil)

// BroadcastDelivered implements broadcast.Hooks. A cross-app broadcast
// wakes the receiver for a billed handler window, so it begins a
// collateral attack spanning that window (extension vector).
func (m *Monitor) BroadcastDelivered(t sim.Time, d *broadcast.Delivery) {
	driven := d.Receiver.UID
	if d.Sender == driven {
		return
	}
	m.record("broadcast", d.Sender, driven, d.Action+" "+d.Component)
	if m.mode != Complete {
		return
	}
	if m.isCollateralApp(d.Sender) && m.isCollateralApp(driven) {
		m.beginAttack(VectorBroadcast, d.Sender, driven, d)
	}
}

// BroadcastHandlerDone implements broadcast.Hooks: the handler window
// closing ends the delivery's attack.
func (m *Monitor) BroadcastHandlerDone(t sim.Time, d *broadcast.Delivery) {
	if m.mode != Complete {
		return
	}
	m.endWhere(func(a *Attack) bool {
		return a.Vector == VectorBroadcast && a.anchor == any(d)
	})
}

// --- provider.Hooks ---

var _ provider.Hooks = (*Monitor)(nil)

// ProviderQueried implements provider.Hooks. A cross-app query bills the
// providing process, so it opens a collateral period for the query
// window (extension vector).
func (m *Monitor) ProviderQueried(t sim.Time, q *provider.Query) {
	driven := q.Provider.UID
	if q.Caller == driven {
		return
	}
	m.record("provider-query", q.Caller, driven, q.Component)
	if m.mode != Complete {
		return
	}
	if m.isCollateralApp(q.Caller) && m.isCollateralApp(driven) {
		m.beginAttack(VectorProvider, q.Caller, driven, q)
	}
}

// ProviderQueryDone implements provider.Hooks: the window closing ends
// the query's collateral period.
func (m *Monitor) ProviderQueryDone(t sim.Time, q *provider.Query) {
	if m.mode != Complete {
		return
	}
	m.endWhere(func(a *Attack) bool {
		return a.Vector == VectorProvider && a.anchor == any(q)
	})
}

// --- display.Hooks ---

var _ display.Hooks = (*Monitor)(nil)

// BrightnessChanged implements display.Hooks (Fig. 5d). An app-driven
// increase begins a screen attack; a decrease by the attacker or any
// system-UI (user) change ends it.
func (m *Monitor) BrightnessChanged(t sim.Time, by app.UID, source display.Source, old, new int) {
	switch source {
	case display.SourceSystemUI:
		m.record("brightness-user", by, app.UIDScreen, fmt.Sprintf("%d->%d", old, new))
		if m.mode == Complete {
			m.endWhere(func(a *Attack) bool { return a.Vector == VectorScreen })
		}
	case display.SourceApp:
		if !m.isCollateralApp(by) {
			return
		}
		m.record("brightness-app", by, app.UIDScreen, fmt.Sprintf("%d->%d", old, new))
		if m.mode != Complete {
			return
		}
		switch {
		case new > old:
			m.beginAttack(VectorScreen, by, app.UIDScreen, nil)
		case new < old:
			m.endWhere(func(a *Attack) bool {
				return a.Vector == VectorScreen && a.Driving == by
			})
		}
	case display.SourceSensor:
		// Ambient adjustments are the system's own doing.
	}
}

// ModeChanged implements display.Hooks (Fig. 5d). An app switching
// auto -> manual begins a screen attack (the saved value applies);
// anyone switching to auto ends all screen attacks.
func (m *Monitor) ModeChanged(t sim.Time, by app.UID, source display.Source, old, new display.Mode) {
	m.record("brightness-mode", by, app.UIDScreen, old.String()+"->"+new.String())
	if m.mode != Complete {
		return
	}
	if new == display.Auto {
		m.endWhere(func(a *Attack) bool { return a.Vector == VectorScreen })
		return
	}
	if new == display.Manual && source == display.SourceApp && m.isCollateralApp(by) {
		m.beginAttack(VectorScreen, by, app.UIDScreen, nil)
	}
}
