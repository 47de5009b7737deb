// Package activity reimplements the slice of Android's ActivityManager
// ("am") that the paper's attacks and E-Android's monitoring depend on:
// a task stack with z-ordering, the activity lifecycle
// (resumed/paused/stopped/destroyed), foreground tracking, launcher and
// resolver-activity indirection, and task reordering.
//
// Lifecycle rules follow the paper's description: the top activity is
// resumed; an activity covered only by transparent activities is paused;
// anything else in the stack is stopped; destroyed activities leave the
// stack. Background activities keep draining their background CPU share,
// which is what makes attack #2 effective.
package activity

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// State is an activity lifecycle state.
type State int

// Lifecycle states.
const (
	// Resumed is the foreground, interactive state.
	Resumed State = iota + 1
	// Paused is visible but covered by a transparent activity.
	Paused
	// Stopped is fully covered / in the background.
	Stopped
	// Destroyed means the activity has been finished and removed.
	Destroyed
)

func (s State) String() string {
	switch s {
	case Resumed:
		return "resumed"
	case Paused:
		return "paused"
	case Stopped:
		return "stopped"
	case Destroyed:
		return "destroyed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// CauseKind classifies what triggered a foreground change.
type CauseKind int

// Foreground change causes.
const (
	// CauseStart is an activity start bringing a new activity on top.
	CauseStart CauseKind = iota + 1
	// CauseMoveToFront is a task reorder.
	CauseMoveToFront
	// CauseHome is the launcher coming to the front.
	CauseHome
	// CauseBack is the user popping the top activity.
	CauseBack
	// CauseFinish is an activity finishing programmatically.
	CauseFinish
	// CauseProcessDeath is the owning process dying.
	CauseProcessDeath
)

func (c CauseKind) String() string {
	switch c {
	case CauseStart:
		return "start"
	case CauseMoveToFront:
		return "move-to-front"
	case CauseHome:
		return "home"
	case CauseBack:
		return "back"
	case CauseFinish:
		return "finish"
	case CauseProcessDeath:
		return "process-death"
	}
	return fmt.Sprintf("CauseKind(%d)", int(c))
}

// Cause pairs a change kind with the UID that initiated it
// (app.UIDSystem for direct user input).
type Cause struct {
	Kind      CauseKind
	Initiator app.UID
}

// Activity is one live activity record in the task stack.
type Activity struct {
	app         *app.App
	component   string
	transparent bool
	state       State
	// fullName caches FullName: a record's component never changes.
	fullName string
}

// App returns the owning application.
func (a *Activity) App() *app.App { return a.app }

// Component returns the short component name.
func (a *Activity) Component() string { return a.component }

// State returns the current lifecycle state.
func (a *Activity) State() State { return a.state }

// Transparent reports whether the activity only partially covers the one
// beneath it.
func (a *Activity) Transparent() bool { return a.transparent }

// FullName returns "package/Component". It is built on the first call
// and reused after, so a lifecycle transition pays no concatenation.
func (a *Activity) FullName() string {
	if a.fullName == "" {
		a.fullName = manifest.FullComponentName(a.app.Package(), a.component)
	}
	return a.fullName
}

// Hooks receive activity manager events; both the accounting layer (for
// foreground-based screen attribution) and E-Android's monitor implement
// this.
type Hooks interface {
	// ActivityStarted fires when an activity is created by an intent.
	// caller is the original sender (the resolver indirection is already
	// unwound).
	ActivityStarted(t sim.Time, caller app.UID, target *Activity, explicit bool)
	// ForegroundChanged fires when the app owning the top activity
	// changes.
	ForegroundChanged(t sim.Time, prev, cur app.UID, cause Cause)
	// Lifecycle fires on every activity state transition.
	Lifecycle(t sim.Time, a *Activity, old, new State)
}

// StartOption customizes an activity start.
type StartOption func(*startConfig)

type startConfig struct {
	transparent bool
}

// Transparent marks the started activity as transparent, so the activity
// beneath it pauses instead of stopping — the overlay trick the paper's
// malware #4 uses.
func Transparent() StartOption {
	return func(c *startConfig) { c.transparent = true }
}

// Manager is the simulated activity manager service.
type Manager struct {
	engine   *sim.Engine
	pm       *app.PackageManager
	resolver *intent.Resolver
	agg      *hw.Aggregator
	hooks    []Hooks

	stack          []*Activity // index 0 = bottom, last = top (z-order)
	launcher       *app.App
	lastForeground app.UID

	// pending implicit resolution awaiting a user choice.
	pending *pendingResolution

	deathWatched map[app.UID]bool

	// onUserInteraction, when set, is invoked for every user-driven
	// operation (start from launcher, home, back, reorder) so the power
	// manager can reset the screen timeout.
	onUserInteraction func()

	// tel receives lifecycle transitions; nil costs one branch per
	// transition.
	tel *telemetry.Recorder
}

type pendingResolution struct {
	in      intent.Intent
	matches []intent.Match
	record  *Activity // the resolver activity record on the stack
}

// LauncherPackage is the built-in home screen package name.
const LauncherPackage = "android.launcher"

// ResolverPackage is the built-in resolver activity's package name.
const ResolverPackage = "android.resolver"

// NewManager builds the activity manager, installing the launcher and
// resolver system apps and putting the launcher's home activity at the
// bottom of the stack.
func NewManager(engine *sim.Engine, pm *app.PackageManager, res *intent.Resolver, agg *hw.Aggregator) (*Manager, error) {
	if engine == nil || pm == nil || res == nil || agg == nil {
		return nil, fmt.Errorf("activity: nil dependency")
	}
	m := &Manager{
		engine:       engine,
		pm:           pm,
		resolver:     res,
		agg:          agg,
		deathWatched: make(map[app.UID]bool),
	}
	launcher, err := pm.InstallSystem(manifest.NewBuilder(LauncherPackage, "Launcher").
		Activity("Home", true).MustBuild())
	if err != nil {
		return nil, err
	}
	if _, err := pm.InstallSystem(manifest.NewBuilder(ResolverPackage, "Android System").
		Activity("ResolverActivity", true).MustBuild()); err != nil {
		return nil, err
	}
	m.launcher = launcher
	m.lastForeground = app.UIDNone
	home := &Activity{app: launcher, component: "Home", state: Stopped}
	m.stack = append(m.stack, home)
	m.recompute(Cause{Kind: CauseHome, Initiator: app.UIDSystem})
	return m, nil
}

// AddHooks registers an event consumer.
func (m *Manager) AddHooks(h Hooks) { m.hooks = append(m.hooks, h) }

// SetTelemetry wires a telemetry recorder (nil detaches it).
func (m *Manager) SetTelemetry(rec *telemetry.Recorder) { m.tel = rec }

// SetUserInteractionFunc wires user-driven operations to fn (typically
// the power manager's UserActivity).
func (m *Manager) SetUserInteractionFunc(fn func()) { m.onUserInteraction = fn }

// Launcher returns the built-in launcher app.
func (m *Manager) Launcher() *app.App { return m.launcher }

// Foreground returns the UID owning the top activity (UIDNone for an
// empty stack, which cannot happen after construction).
func (m *Manager) Foreground() app.UID {
	if len(m.stack) == 0 {
		return app.UIDNone
	}
	return m.stack[len(m.stack)-1].app.UID
}

// Top returns the foreground activity.
func (m *Manager) Top() *Activity {
	if len(m.stack) == 0 {
		return nil
	}
	return m.stack[len(m.stack)-1]
}

// Stack returns a copy of the task stack, bottom first.
func (m *Manager) Stack() []*Activity {
	out := make([]*Activity, len(m.stack))
	copy(out, m.stack)
	return out
}

// ActivitiesOf returns the live activities of uid, bottom first.
func (m *Manager) ActivitiesOf(uid app.UID) []*Activity {
	var out []*Activity
	for _, a := range m.stack {
		if a.app.UID == uid {
			out = append(out, a)
		}
	}
	return out
}

func (m *Manager) userInteraction() {
	if m.onUserInteraction != nil {
		m.onUserInteraction()
	}
}

// StartActivity starts an activity via an explicit intent. The caller is
// in.Sender; export rules are enforced by the resolver.
func (m *Manager) StartActivity(in intent.Intent, opts ...StartOption) (*Activity, error) {
	match, err := m.resolver.ResolveExplicit(in, manifest.KindActivity)
	if err != nil {
		return nil, err
	}
	return m.startResolved(in.Sender, match, true, opts...), nil
}

// StartActivityImplicit starts an activity via an implicit intent.
//
// With a single match the activity starts immediately and the returned
// Activity is non-nil. With several matches Android interposes the
// resolver activity: the resolver record comes to the foreground, the
// matches are returned, and the start completes only when
// ChooseResolverOption is called. E-Android's monitor attributes the
// eventual start to the original sender, not the resolver.
func (m *Manager) StartActivityImplicit(in intent.Intent, opts ...StartOption) ([]intent.Match, *Activity, error) {
	matches, err := m.resolver.ResolveImplicit(in, manifest.KindActivity)
	if err != nil {
		return nil, nil, err
	}
	if len(matches) == 0 {
		return nil, nil, fmt.Errorf("activity: no activity matches %v", in)
	}
	if len(matches) == 1 {
		return matches, m.startResolved(in.Sender, matches[0], false, opts...), nil
	}
	if m.pending != nil {
		return nil, nil, fmt.Errorf("activity: resolver already pending")
	}
	resApp := m.pm.ByPackage(ResolverPackage)
	rec := &Activity{app: resApp, component: "ResolverActivity", state: Stopped, transparent: true}
	m.stack = append(m.stack, rec)
	m.pending = &pendingResolution{in: in, matches: matches, record: rec}
	m.recompute(Cause{Kind: CauseStart, Initiator: in.Sender})
	return matches, nil, nil
}

// ChooseResolverOption completes a pending implicit start with the user's
// choice. The resolver activity pops and the chosen activity starts,
// attributed to the original intent sender.
func (m *Manager) ChooseResolverOption(idx int, opts ...StartOption) (*Activity, error) {
	if m.pending == nil {
		return nil, fmt.Errorf("activity: no pending resolution")
	}
	p := m.pending
	if idx < 0 || idx >= len(p.matches) {
		return nil, fmt.Errorf("activity: resolver choice %d out of range [0,%d)", idx, len(p.matches))
	}
	m.pending = nil
	m.userInteraction()
	m.removeRecord(p.record)
	p.record.state = Destroyed
	// No lifecycle hook for the system resolver teardown: E-Android
	// "ignores the Android system's UI" in this flow.
	return m.startResolved(p.in.Sender, p.matches[idx], false, opts...), nil
}

// PendingResolver reports whether a resolver choice is awaited.
func (m *Manager) PendingResolver() bool { return m.pending != nil }

func (m *Manager) startResolved(caller app.UID, match intent.Match, explicit bool, opts ...StartOption) *Activity {
	var cfg startConfig
	for _, o := range opts {
		o(&cfg)
	}
	target := match.App
	if !target.Alive() {
		target.Revive()
	}
	m.watchDeath(target)
	rec := &Activity{
		app:         target,
		component:   match.Component,
		transparent: cfg.transparent,
		state:       Stopped,
	}
	m.stack = append(m.stack, rec)
	for _, h := range m.hooks {
		h.ActivityStarted(m.engine.Now(), caller, rec, explicit)
	}
	m.recompute(Cause{Kind: CauseStart, Initiator: caller})
	return rec
}

// UserStartApp simulates the user tapping an app icon: the launcher
// dispatches an explicit intent for the app's first exported activity.
func (m *Manager) UserStartApp(pkg string) (*Activity, error) {
	target := m.pm.ByPackage(pkg)
	if target == nil {
		return nil, fmt.Errorf("activity: no such package %q", pkg)
	}
	var comp string
	for _, c := range target.Manifest.Components {
		if c.Kind == manifest.KindActivity {
			comp = c.Name
			break
		}
	}
	if comp == "" {
		return nil, fmt.Errorf("activity: %s declares no activities", pkg)
	}
	m.userInteraction()
	return m.StartActivity(intent.Intent{
		Sender:    m.launcher.UID,
		Component: manifest.FullComponentName(pkg, comp),
	})
}

// Home simulates the home button (initiator app.UIDSystem) or an app
// sending a home intent (initiator = that app's UID, the trick malware #4
// plays). The launcher's task moves to the front.
func (m *Manager) Home(initiator app.UID) {
	if initiator == app.UIDSystem {
		m.userInteraction()
	}
	m.moveAppToTop(m.launcher.UID)
	m.recompute(Cause{Kind: CauseHome, Initiator: initiator})
}

// MoveAppToFront reorders the stack to bring an app's task (all of its
// activities, preserving relative order) to the front.
func (m *Manager) MoveAppToFront(initiator app.UID, pkg string) error {
	target := m.pm.ByPackage(pkg)
	if target == nil {
		return fmt.Errorf("activity: no such package %q", pkg)
	}
	if len(m.ActivitiesOf(target.UID)) == 0 {
		return fmt.Errorf("activity: %s has no live activities", pkg)
	}
	if initiator == app.UIDSystem {
		m.userInteraction()
	}
	m.moveAppToTop(target.UID)
	m.recompute(Cause{Kind: CauseMoveToFront, Initiator: initiator})
	return nil
}

func (m *Manager) moveAppToTop(uid app.UID) {
	var kept, moved []*Activity
	for _, a := range m.stack {
		if a.app.UID == uid {
			moved = append(moved, a)
		} else {
			kept = append(kept, a)
		}
	}
	m.stack = append(kept, moved...)
}

// Back simulates the back button: the top non-launcher activity finishes.
func (m *Manager) Back() {
	m.userInteraction()
	top := m.Top()
	if top == nil || top.app.UID == m.launcher.UID {
		return
	}
	m.finish(top, Cause{Kind: CauseBack, Initiator: app.UIDSystem})
}

// Finish destroys a specific activity (programmatic finish()).
func (m *Manager) Finish(a *Activity) error {
	if a.state == Destroyed {
		return fmt.Errorf("activity: %s already destroyed", a.FullName())
	}
	m.finish(a, Cause{Kind: CauseFinish, Initiator: a.app.UID})
	return nil
}

func (m *Manager) finish(a *Activity, cause Cause) {
	m.removeRecord(a)
	m.setState(a, Destroyed)
	m.recompute(cause)
}

// UserQuitApp simulates the user properly exiting an app through its exit
// dialog: all of its activities finish and its process dies (releasing
// wakelocks via link-to-death).
func (m *Manager) UserQuitApp(pkg string) error {
	target := m.pm.ByPackage(pkg)
	if target == nil {
		return fmt.Errorf("activity: no such package %q", pkg)
	}
	m.userInteraction()
	for _, a := range m.ActivitiesOf(target.UID) {
		m.removeRecord(a)
		m.setState(a, Destroyed)
	}
	m.recompute(Cause{Kind: CauseBack, Initiator: app.UIDSystem})
	target.Kill()
	return nil
}

func (m *Manager) watchDeath(a *app.App) {
	if m.deathWatched[a.UID] {
		return
	}
	m.deathWatched[a.UID] = true
	a.LinkToDeath(func() {
		m.deathWatched[a.UID] = false
		changed := false
		for _, rec := range m.ActivitiesOf(a.UID) {
			m.removeRecord(rec)
			m.setState(rec, Destroyed)
			changed = true
		}
		if changed {
			m.recompute(Cause{Kind: CauseProcessDeath, Initiator: a.UID})
		}
	})
}

func (m *Manager) removeRecord(a *Activity) {
	for i, rec := range m.stack {
		if rec == a {
			m.stack = append(m.stack[:i], m.stack[i+1:]...)
			return
		}
	}
}

// recompute reapplies lifecycle states from the current stack order and
// fires ForegroundChanged when the top app changed.
func (m *Manager) recompute(cause Cause) {
	prevFg := m.lastForeground
	// Top is resumed; records covered only by transparent activities are
	// paused; everything else is stopped.
	allTransparentAbove := true
	for i := len(m.stack) - 1; i >= 0; i-- {
		rec := m.stack[i]
		var want State
		switch {
		case i == len(m.stack)-1:
			want = Resumed
		case allTransparentAbove:
			want = Paused
		default:
			want = Stopped
		}
		if !rec.transparent {
			allTransparentAbove = false
		}
		m.setState(rec, want)
	}
	cur := m.Foreground()
	m.lastForeground = cur
	if cur != prevFg {
		for _, h := range m.hooks {
			h.ForegroundChanged(m.engine.Now(), prevFg, cur, cause)
		}
	}
}

func (m *Manager) setState(a *Activity, s State) {
	if a.state == s {
		return
	}
	old := a.state
	a.state = s
	m.tel.RecordLifecycle(m.engine.Now(), a.app.UID, a.FullName(), old.String(), s.String())
	m.applyDemand(a)
	for _, h := range m.hooks {
		h.Lifecycle(m.engine.Now(), a, old, s)
	}
}

func (m *Manager) applyDemand(a *Activity) {
	w := a.app.Workload(a.component)
	switch a.state {
	case Resumed:
		_ = m.agg.Set(a, a.app.UID, hw.Demand{
			CPUUtil: w.CPUActive,
			Camera:  w.Camera,
			GPS:     w.GPS,
			WiFi:    w.WiFi,
			Audio:   w.Audio,
		})
	case Paused, Stopped:
		// Background activities keep a residual CPU share but lose
		// peripherals (Android revokes the camera from background apps).
		_ = m.agg.Set(a, a.app.UID, hw.Demand{CPUUtil: w.CPUBackground})
	case Destroyed:
		_ = m.agg.Clear(a)
	}
}
