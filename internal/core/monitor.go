package core

import (
	"fmt"
	"slices"
	"sort"

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
	// active indexes live attacks by driven party for the accrual
	// traversal and end-condition checks.
	activeByDriven map[app.UID][]*Attack

	// maps is the per-app collateral energy map: driving -> driven ->
	// entry.
	maps map[app.UID]map[app.UID]*MapEntry
	// drivers lists the keys of maps in ascending order. Maps are never
	// removed, so it only grows (see ensureEntry).
	drivers []app.UID

	// heldScreenLocks tracks live screen-type wakelocks for the Fig. 5e
	// state machine.
	heldScreenLocks map[*power.Wakelock]bool

	events []Event

	// flushFn, when set, settles the energy meter before any attack
	// begins or ends, so intervals spanning an event boundary are
	// attributed at the pre-event attack state.
	flushFn func()

	// chargePolicy selects the collateral superimposition rule; zero
	// means ChargeFullToEach.
	chargePolicy ChargePolicy

	// historyLimit, when positive, bounds the retained event log and the
	// ended-attack history (live attacks are never dropped). Zero keeps
	// everything — fine for experiments, not for week-long soaks.
	historyLimit int

	// Accrue's reusable per-interval scratch: while attacks are active
	// the superimposition pass runs on every integrated interval, and
	// rebuilding these from scratch each time dominated the monitor's
	// allocation profile.
	drivenScratch []app.UID
	orderScratch  []app.UID
	benefScratch  map[app.UID]bool
	// entryScratch is sortedEntries' buffer: the watchdog sums every
	// driver's map at every window close.
	entryScratch []*MapEntry
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
		engine:          engine,
		pm:              pm,
		mode:            mode,
		foreground:      app.UIDNone,
		activeByDriven:  make(map[app.UID][]*Attack),
		maps:            make(map[app.UID]map[app.UID]*MapEntry),
		heldScreenLocks: make(map[*power.Wakelock]bool),
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
	return out
}

// Attacks returns all attack records, begun order.
func (m *Monitor) Attacks() []*Attack {
	out := make([]*Attack, len(m.attacks))
	copy(out, m.attacks)
	return out
}

// ActiveAttacks returns currently active attacks, begun order.
func (m *Monitor) ActiveAttacks() []*Attack {
	var out []*Attack
	for _, a := range m.attacks {
		if a.Active {
			out = append(out, a)
		}
	}
	return out
}

// isCollateralApp reports whether uid belongs to an installed,
// non-system app — the only parties E-Android puts on the attack list.
func (m *Monitor) isCollateralApp(uid app.UID) bool {
	a := m.pm.ByUID(uid)
	return a != nil && !a.System
}

// SetHistoryLimit bounds the retained event log and ended-attack history
// to n entries each (0 = unlimited). Live attacks are never dropped.
func (m *Monitor) SetHistoryLimit(n int) error {
	if n < 0 {
		return fmt.Errorf("core: negative history limit %d", n)
	}
	m.historyLimit = n
	m.trimHistory()
	return nil
}

func (m *Monitor) trimHistory() {
	if m.historyLimit <= 0 {
		return
	}
	if excess := len(m.events) - m.historyLimit; excess > 0 {
		m.events = append([]Event(nil), m.events[excess:]...)
	}
	if len(m.attacks) <= m.historyLimit {
		return
	}
	// Drop the oldest ended attacks first; live ones always survive.
	kept := make([]*Attack, 0, m.historyLimit)
	drop := len(m.attacks) - m.historyLimit
	for _, a := range m.attacks {
		if drop > 0 && !a.Active {
			drop--
			continue
		}
		kept = append(kept, a)
	}
	m.attacks = kept
}

func (m *Monitor) record(kind string, driving, driven app.UID, detail string) {
	m.events = append(m.events, Event{
		T: m.engine.Now(), Kind: kind, Driving: driving, Driven: driven, Detail: detail,
	})
	m.trimHistory()
}

// beginAttack starts a new lifecycle, first ending any identical active
// one ("EndLastAttack" in Algorithm 1) so the same pair is never tracked
// twice by the same mechanism and anchor.
func (m *Monitor) beginAttack(v Vector, driving, driven app.UID, anchor any) *Attack {
	m.flush()
	for _, a := range m.activeByDriven[driven] {
		if a.Vector == v && a.Driving == driving && a.anchor == anchor {
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
	m.activeByDriven[driven] = append(m.activeByDriven[driven], atk)
	m.trimHistory()

	// Algorithm 1: AddElement(driven) on the driving app's map and on
	// every map that (transitively) contains the driving app.
	m.ensureEntry(driving, driven)
	for _, parent := range m.ancestorsOf(driving) {
		m.ensureEntry(parent, driven)
	}
	// Service-related begin events also pull in the driven app's own
	// existing elements ("the driven app could have already bound
	// several energy intensive services before the triggered event").
	if v == VectorServiceStart || v == VectorServiceBind {
		for _, elem := range m.entriesWithActiveLinks(driven) {
			m.ensureEntry(driving, elem)
			for _, parent := range m.ancestorsOf(driving) {
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
	list := m.activeByDriven[a.Driven]
	for i, x := range list {
		if x == a {
			m.activeByDriven[a.Driven] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(m.activeByDriven[a.Driven]) == 0 {
		delete(m.activeByDriven, a.Driven)
	}
}

// endWhere ends every active attack matching pred. It scans only the
// active index (never the all-time history), so per-event cost stays
// proportional to the number of live attacks.
func (m *Monitor) endWhere(pred func(*Attack) bool) {
	var toEnd []*Attack
	for _, list := range m.activeByDriven {
		for _, a := range list {
			if pred(a) {
				toEnd = append(toEnd, a)
			}
		}
	}
	sort.Slice(toEnd, func(i, j int) bool { return toEnd[i].ID < toEnd[j].ID })
	for _, a := range toEnd {
		m.endAttack(a)
	}
}

func (m *Monitor) ensureEntry(driving, driven app.UID) {
	if driving == driven {
		return
	}
	mp := m.maps[driving]
	if mp == nil {
		mp = make(map[app.UID]*MapEntry)
		m.maps[driving] = mp
		i, _ := slices.BinarySearch(m.drivers, driving)
		m.drivers = slices.Insert(m.drivers, i, driving)
	}
	if mp[driven] == nil {
		mp[driven] = &MapEntry{Driven: driven}
	}
}

// ancestorsOf walks active attack links upstream from uid: every app
// that currently drives uid, directly or through a chain. Cycle-safe.
func (m *Monitor) ancestorsOf(uid app.UID) []app.UID {
	visited := map[app.UID]bool{uid: true}
	var out []app.UID
	queue := []app.UID{uid}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, a := range m.activeByDriven[cur] {
			if visited[a.Driving] {
				continue
			}
			visited[a.Driving] = true
			out = append(out, a.Driving)
			queue = append(queue, a.Driving)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// entriesWithActiveLinks returns the driven parties that uid's map holds
// live links to (i.e. uid is currently driving them). Only the active
// index is scanned.
func (m *Monitor) entriesWithActiveLinks(uid app.UID) []app.UID {
	set := map[app.UID]bool{}
	for _, list := range m.activeByDriven {
		for _, a := range list {
			if a.Driving == uid {
				set[a.Driven] = true
			}
		}
	}
	out := make([]app.UID, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

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
	detail := "implicit"
	if explicit {
		detail = "explicit"
	}
	m.record("activity-start", caller, driven, detail+" "+target.FullName())
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
	for wl := range m.heldScreenLocks {
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
	m.heldScreenLocks[wl] = true
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
	delete(m.heldScreenLocks, wl)
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
