// Package power reimplements the Android power manager semantics the
// paper's attacks depend on: the four wakelock types, acquire/release
// with Binder link-to-death auto-release, the screen auto-off timeout,
// and the aggressive suspend policy that puts the platform into deep
// sleep once nothing holds it awake.
package power

import (
	"fmt"
	"sort"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/sim"
)

// WakelockType enumerates Android's four wakelock levels.
type WakelockType int

// The four wakelock types. Three of the four keep the screen on.
const (
	// Partial keeps the CPU awake; screen may turn off.
	Partial WakelockType = iota + 1
	// ScreenDim keeps the screen on (dim allowed).
	ScreenDim
	// ScreenBright keeps the screen on at full brightness.
	ScreenBright
	// Full keeps screen, keyboard backlight and CPU on.
	Full
)

var wakelockNames = map[WakelockType]string{
	Partial:      "PARTIAL_WAKE_LOCK",
	ScreenDim:    "SCREEN_DIM_WAKE_LOCK",
	ScreenBright: "SCREEN_BRIGHT_WAKE_LOCK",
	Full:         "FULL_WAKE_LOCK",
}

// String returns the Android constant name for the type.
func (w WakelockType) String() string {
	if s, ok := wakelockNames[w]; ok {
		return s
	}
	return fmt.Sprintf("WakelockType(%d)", int(w))
}

// KeepsScreenOn reports whether the wakelock type forces the display on.
func (w WakelockType) KeepsScreenOn() bool {
	return w == ScreenDim || w == ScreenBright || w == Full
}

// ReleaseCause records why a wakelock was released.
type ReleaseCause int

// Release causes.
const (
	// ReleasedExplicit is a normal release() call by the owner.
	ReleasedExplicit ReleaseCause = iota + 1
	// ReleasedLinkToDeath is the kernel Binder driver releasing the lock
	// because the owning process died.
	ReleasedLinkToDeath
)

func (c ReleaseCause) String() string {
	switch c {
	case ReleasedExplicit:
		return "explicit"
	case ReleasedLinkToDeath:
		return "link-to-death"
	}
	return fmt.Sprintf("ReleaseCause(%d)", int(c))
}

// ScreenCause records why the screen changed state.
type ScreenCause int

// Screen state-change causes.
const (
	// ScreenUserActivity is a user touch/power-button wake.
	ScreenUserActivity ScreenCause = iota + 1
	// ScreenTimeout is the auto-off idle timeout.
	ScreenTimeout
	// ScreenWakelock is a screen-type wakelock forcing the display on.
	ScreenWakelock
)

func (c ScreenCause) String() string {
	switch c {
	case ScreenUserActivity:
		return "user-activity"
	case ScreenTimeout:
		return "timeout"
	case ScreenWakelock:
		return "wakelock"
	}
	return fmt.Sprintf("ScreenCause(%d)", int(c))
}

// Wakelock is a held (or released) wakelock registration.
type Wakelock struct {
	Owner app.UID
	Type  WakelockType
	Tag   string

	held bool
	mgr  *Manager
}

// Held reports whether the lock is still held.
func (w *Wakelock) Held() bool { return w.held }

// Release drops the lock. Releasing twice is an error, matching Android's
// RuntimeException on over-release.
func (w *Wakelock) Release() error {
	if !w.held {
		return fmt.Errorf("power: wakelock %q released while not held", w.Tag)
	}
	w.mgr.release(w, ReleasedExplicit)
	return nil
}

// Hooks receive power manager events. E-Android's monitor implements
// this; a no-op default keeps stock Android behaviour.
type Hooks interface {
	WakelockAcquired(t sim.Time, wl *Wakelock)
	WakelockReleased(t sim.Time, wl *Wakelock, cause ReleaseCause)
	ScreenChanged(t sim.Time, on bool, cause ScreenCause)
}

// Manager is the simulated PowerManagerService.
type Manager struct {
	engine *sim.Engine
	meter  *hw.Meter
	pm     *app.PackageManager
	hooks  []Hooks

	locks map[*Wakelock]struct{}

	screenOn      bool
	screenTimeout sim.Duration
	timeoutEvent  sim.Handle
	// onTimeout is screenTimeoutFired bound once, so re-arming the
	// timeout on every user touch allocates no closure.
	onTimeout func()

	lastUser sim.Time
}

// DefaultScreenTimeout mirrors the 30 s auto-off the paper's experiments
// use.
const DefaultScreenTimeout = 30 * sim.Duration(sim.Second)

// NewManager builds a power manager. The device starts awake with the
// screen on (just unlocked) and the timeout armed.
func NewManager(engine *sim.Engine, meter *hw.Meter, pm *app.PackageManager) (*Manager, error) {
	if engine == nil || meter == nil || pm == nil {
		return nil, fmt.Errorf("power: nil dependency")
	}
	m := &Manager{
		engine:        engine,
		meter:         meter,
		pm:            pm,
		locks:         make(map[*Wakelock]struct{}),
		screenTimeout: DefaultScreenTimeout,
	}
	m.onTimeout = m.screenTimeoutFired
	m.setScreen(true, ScreenUserActivity)
	m.lastUser = engine.Now()
	return m, nil
}

// AddHooks registers an event consumer.
func (m *Manager) AddHooks(h Hooks) { m.hooks = append(m.hooks, h) }

// SetScreenTimeout changes the auto-off idle timeout and re-arms it.
func (m *Manager) SetScreenTimeout(d sim.Duration) error {
	if d <= 0 {
		return fmt.Errorf("power: non-positive screen timeout %v", d)
	}
	m.screenTimeout = d
	if m.screenOn {
		m.armTimeout()
	}
	return nil
}

// ScreenOn reports whether the display is lit.
func (m *Manager) ScreenOn() bool { return m.screenOn }

// Acquire takes a wakelock for the app with the given uid. It enforces
// the WAKE_LOCK permission for non-system apps and links the lock to the
// owner's process death, exactly as PowerManagerService registers a
// death token with the Binder driver.
func (m *Manager) Acquire(uid app.UID, typ WakelockType, tag string) (*Wakelock, error) {
	if _, ok := wakelockNames[typ]; !ok {
		return nil, fmt.Errorf("power: invalid wakelock type %d", int(typ))
	}
	owner := m.pm.ByUID(uid)
	if owner == nil {
		return nil, fmt.Errorf("power: unknown uid %d", uid)
	}
	if !owner.System && !owner.Manifest.HasPermission(manifest.PermWakeLock) {
		return nil, fmt.Errorf("power: %s lacks %s", owner.Package(), manifest.PermWakeLock)
	}
	if !owner.Alive() {
		return nil, fmt.Errorf("power: %s process is dead", owner.Package())
	}
	wl := &Wakelock{Owner: uid, Type: typ, Tag: tag, held: true, mgr: m}
	m.locks[wl] = struct{}{}
	owner.LinkToDeath(func() {
		if wl.held {
			m.release(wl, ReleasedLinkToDeath)
		}
	})

	// Any wakelock wakes the platform from suspend.
	m.meter.SetSuspended(false)
	if typ.KeepsScreenOn() && !m.screenOn {
		m.setScreen(true, ScreenWakelock)
	}
	// A bright or full lock forces the display out of the dim state.
	if typ == ScreenBright || typ == Full {
		m.meter.SetScreenDim(false)
	}
	for _, h := range m.hooks {
		h.WakelockAcquired(m.engine.Now(), wl)
	}
	return wl, nil
}

func (m *Manager) release(wl *Wakelock, cause ReleaseCause) {
	wl.held = false
	delete(m.locks, wl)
	for _, h := range m.hooks {
		h.WakelockReleased(m.engine.Now(), wl, cause)
	}
	m.reevaluate()
}

// HeldBy returns the live wakelocks owned by uid, sorted by tag.
func (m *Manager) HeldBy(uid app.UID) []*Wakelock {
	var out []*Wakelock
	for wl := range m.locks {
		if wl.Owner == uid {
			out = append(out, wl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// AnyScreenLock reports whether any held wakelock forces the screen on.
func (m *Manager) AnyScreenLock() bool {
	for wl := range m.locks {
		if wl.Type.KeepsScreenOn() {
			return true
		}
	}
	return false
}

// onlyDimLocks reports whether the screen is held exclusively by
// SCREEN_DIM wakelocks (so the display may dim at timeout).
func (m *Manager) onlyDimLocks() bool {
	any := false
	for wl := range m.locks {
		if !wl.Type.KeepsScreenOn() {
			continue
		}
		if wl.Type != ScreenDim {
			return false
		}
		any = true
	}
	return any
}

// AnyLock reports whether any wakelock at all is held.
func (m *Manager) AnyLock() bool { return len(m.locks) > 0 }

// LastUserActivity returns the virtual instant of the most recent user
// touch (device construction counts as the unlocking touch). Energy
// anomaly detectors use it to separate drain the user's own interaction
// explains from drain sustained while the device sits untouched.
func (m *Manager) LastUserActivity() sim.Time { return m.lastUser }

// UserActivity simulates a user touch: wakes the device, lights (and
// undims) the screen and resets the idle timeout.
func (m *Manager) UserActivity() {
	m.lastUser = m.engine.Now()
	m.meter.SetSuspended(false)
	m.meter.SetScreenDim(false)
	if !m.screenOn {
		m.setScreen(true, ScreenUserActivity)
	} else {
		m.armTimeout()
	}
}

func (m *Manager) setScreen(on bool, cause ScreenCause) {
	m.screenOn = on
	m.meter.SetScreen(on)
	if on {
		m.meter.SetSuspended(false)
		m.armTimeout()
	} else {
		m.disarmTimeout()
	}
	for _, h := range m.hooks {
		h.ScreenChanged(m.engine.Now(), on, cause)
	}
	if !on {
		m.reevaluate()
	}
}

func (m *Manager) armTimeout() {
	m.disarmTimeout()
	m.timeoutEvent = m.engine.After(m.screenTimeout, "power.screen-timeout", m.onTimeout)
}

// screenTimeoutFired is the screen-timeout event's callback.
func (m *Manager) screenTimeoutFired() {
	m.timeoutEvent = sim.Handle{}
	if m.AnyScreenLock() {
		// A screen wakelock holds the display on — but if only dim
		// locks remain, the display drops to its dim state (the
		// SCREEN_DIM_WAKE_LOCK contract). Check again later.
		if m.onlyDimLocks() {
			m.meter.SetScreenDim(true)
		}
		m.armTimeout()
		return
	}
	if m.screenOn {
		m.setScreen(false, ScreenTimeout)
	}
}

func (m *Manager) disarmTimeout() {
	m.timeoutEvent.Cancel() // no-op on the zero Handle or a fired event
	m.timeoutEvent = sim.Handle{}
}

// reevaluate applies Android's aggressive sleep policy: with the screen
// off and no wakelocks of any kind, the platform suspends.
func (m *Manager) reevaluate() {
	if !m.screenOn && !m.AnyLock() {
		m.meter.SetSuspended(true)
	}
}
