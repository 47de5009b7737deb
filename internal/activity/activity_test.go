package activity

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/sim"
)

type recorder struct {
	started    []string // "caller->pkg/Comp"
	foreground []string // "prev->cur:kind"
	lifecycle  []string // "pkg/Comp:old->new"
	pm         *app.PackageManager
}

func (r *recorder) ActivityStarted(t sim.Time, caller app.UID, target *Activity, explicit bool) {
	r.started = append(r.started, fmt.Sprintf("%s->%s", r.pm.Label(caller), target.FullName()))
}

func (r *recorder) ForegroundChanged(t sim.Time, prev, cur app.UID, cause Cause) {
	r.foreground = append(r.foreground,
		fmt.Sprintf("%s->%s:%s", r.pm.Label(prev), r.pm.Label(cur), cause.Kind))
}

func (r *recorder) Lifecycle(t sim.Time, a *Activity, old, new State) {
	r.lifecycle = append(r.lifecycle, fmt.Sprintf("%s:%s->%s", a.FullName(), old, new))
}

type fx struct {
	engine *sim.Engine
	meter  *hw.Meter
	pm     *app.PackageManager
	mgr    *Manager
	rec    *recorder
}

func newFx(t *testing.T) *fx {
	t.Helper()
	e := sim.NewEngine()
	b, err := hw.NewBattery(hw.NexusBatteryJ)
	if err != nil {
		t.Fatal(err)
	}
	meter, err := hw.NewMeter(e.Now, hw.Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := hw.NewAggregator(meter)
	if err != nil {
		t.Fatal(err)
	}
	pm := app.NewPackageManager()
	res := intent.NewResolver(pm)
	mgr, err := NewManager(e, pm, res, agg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{pm: pm}
	mgr.AddHooks(rec)
	return &fx{engine: e, meter: meter, pm: pm, mgr: mgr, rec: rec}
}

func (f *fx) install(t *testing.T, pkg, label string) *app.App {
	t.Helper()
	a := f.pm.MustInstall(manifest.NewBuilder(pkg, label).
		Activity("Main", true, manifest.IntentFilter{
			Actions:    []string{intent.ActionSend},
			Categories: []string{intent.CategoryDefault},
		}).
		Activity("Second", true).
		MustBuild())
	if err := a.SetWorkload("Main", app.Workload{CPUActive: 0.4, CPUBackground: 0.05}); err != nil {
		t.Fatal(err)
	}
	return a
}

func (f *fx) userStart(t *testing.T, pkg string) *Activity {
	t.Helper()
	a, err := f.mgr.UserStartApp(pkg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestLauncherStartsForeground(t *testing.T) {
	f := newFx(t)
	if f.mgr.Foreground() != f.mgr.Launcher().UID {
		t.Fatal("launcher should be foreground at boot")
	}
	if f.mgr.Top().State() != Resumed {
		t.Fatal("home activity should be resumed")
	}
}

func TestUserStartAppBringsToForeground(t *testing.T) {
	f := newFx(t)
	a := f.install(t, "com.a", "A")
	rec := f.userStart(t, "com.a")
	if f.mgr.Foreground() != a.UID {
		t.Fatal("app should be foreground")
	}
	if rec.State() != Resumed {
		t.Fatalf("state = %v", rec.State())
	}
	// The launcher beneath is stopped (opaque activity above).
	if got := f.mgr.Stack()[0].State(); got != Stopped {
		t.Fatalf("launcher state = %v", got)
	}
	// Workload applied.
	if got := f.meter.CPUUtil(a.UID); got != 0.4 {
		t.Fatalf("cpu util = %v, want 0.4", got)
	}
}

func TestCrossAppStartAttribution(t *testing.T) {
	f := newFx(t)
	f.install(t, "com.a", "A")
	f.install(t, "com.b", "B")
	f.userStart(t, "com.a")
	aUID := f.pm.ByPackage("com.a").UID
	_, err := f.mgr.StartActivity(intent.Intent{Sender: aUID, Component: "com.b/Main"})
	if err != nil {
		t.Fatal(err)
	}
	want := "A->com.b/Main"
	found := false
	for _, s := range f.rec.started {
		if s == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("started = %v, want %s", f.rec.started, want)
	}
}

func TestBackgroundAppKeepsResidualCPU(t *testing.T) {
	f := newFx(t)
	a := f.install(t, "com.a", "A")
	f.install(t, "com.b", "B")
	f.userStart(t, "com.a")
	f.userStart(t, "com.b")
	if got := f.meter.CPUUtil(a.UID); got != 0.05 {
		t.Fatalf("background util = %v, want 0.05", got)
	}
}

func TestTransparentOverlayPausesNotStops(t *testing.T) {
	f := newFx(t)
	f.install(t, "com.a", "A")
	mal := f.install(t, "com.mal", "Mal")
	victim := f.userStart(t, "com.a")
	_, err := f.mgr.StartActivity(
		intent.Intent{Sender: mal.UID, Component: "com.mal/Main"}, Transparent())
	if err != nil {
		t.Fatal(err)
	}
	if victim.State() != Paused {
		t.Fatalf("victim state = %v, want paused under transparent overlay", victim.State())
	}
	// An opaque activity stops it instead.
	if _, err := f.mgr.StartActivity(intent.Intent{Sender: mal.UID, Component: "com.mal/Second"}); err != nil {
		t.Fatal(err)
	}
	if victim.State() != Stopped {
		t.Fatalf("victim state = %v, want stopped", victim.State())
	}
}

func TestCameraHeldOnlyWhileResumed(t *testing.T) {
	f := newFx(t)
	cam := f.pm.MustInstall(manifest.NewBuilder("com.camera", "Camera").
		Activity("Video", true).MustBuild())
	if err := cam.SetWorkload("Video", app.Workload{CPUActive: 0.6, Camera: true}); err != nil {
		t.Fatal(err)
	}
	f.install(t, "com.b", "B")
	f.userStart(t, "com.camera")
	if !f.meter.Holding(hw.Camera, cam.UID) {
		t.Fatal("camera should be held while resumed")
	}
	f.userStart(t, "com.b")
	if f.meter.Holding(hw.Camera, cam.UID) {
		t.Fatal("camera must be released in background")
	}
}

func TestHomeMovesLauncherToFront(t *testing.T) {
	f := newFx(t)
	a := f.install(t, "com.a", "A")
	rec := f.userStart(t, "com.a")
	f.mgr.Home(app.UIDSystem)
	if f.mgr.Foreground() != f.mgr.Launcher().UID {
		t.Fatal("launcher should be foreground after home")
	}
	if rec.State() != Stopped {
		t.Fatalf("app state after home = %v, want stopped (the no-sleep hazard)", rec.State())
	}
	_ = a
}

func TestMoveAppToFrontRestoresWithoutRestart(t *testing.T) {
	f := newFx(t)
	a := f.install(t, "com.a", "A")
	rec := f.userStart(t, "com.a")
	f.mgr.Home(app.UIDSystem)
	nStarts := len(f.rec.started)
	if err := f.mgr.MoveAppToFront(app.UIDSystem, "com.a"); err != nil {
		t.Fatal(err)
	}
	if f.mgr.Foreground() != a.UID || rec.State() != Resumed {
		t.Fatal("move-to-front should resume the same record")
	}
	if len(f.rec.started) != nStarts {
		t.Fatal("move-to-front must not create a new activity")
	}
}

func TestMoveAppToFrontErrors(t *testing.T) {
	f := newFx(t)
	f.install(t, "com.a", "A")
	if err := f.mgr.MoveAppToFront(app.UIDSystem, "com.missing"); err == nil {
		t.Fatal("missing package accepted")
	}
	if err := f.mgr.MoveAppToFront(app.UIDSystem, "com.a"); err == nil {
		t.Fatal("app with no activities accepted")
	}
}

func TestBackFinishesTop(t *testing.T) {
	f := newFx(t)
	f.install(t, "com.a", "A")
	rec := f.userStart(t, "com.a")
	f.mgr.Back()
	if rec.State() != Destroyed {
		t.Fatalf("state = %v, want destroyed", rec.State())
	}
	if f.mgr.Foreground() != f.mgr.Launcher().UID {
		t.Fatal("launcher should be foreground after back")
	}
	// Back on the bare launcher is a no-op.
	f.mgr.Back()
	if f.mgr.Top() == nil || f.mgr.Top().App().UID != f.mgr.Launcher().UID {
		t.Fatal("launcher must survive back")
	}
}

func TestFinish(t *testing.T) {
	f := newFx(t)
	f.install(t, "com.a", "A")
	rec := f.userStart(t, "com.a")
	if err := f.mgr.Finish(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Finish(rec); err == nil {
		t.Fatal("double finish accepted")
	}
}

func TestUserQuitKillsProcess(t *testing.T) {
	f := newFx(t)
	a := f.install(t, "com.a", "A")
	rec := f.userStart(t, "com.a")
	if err := f.mgr.UserQuitApp("com.a"); err != nil {
		t.Fatal(err)
	}
	if rec.State() != Destroyed || a.Alive() {
		t.Fatal("quit should destroy activities and kill the process")
	}
	if f.meter.CPUUtil(a.UID) != 0 {
		t.Fatal("dead app must not draw CPU")
	}
	if err := f.mgr.UserQuitApp("com.nope"); err == nil {
		t.Fatal("unknown package accepted")
	}
}

func TestProcessDeathDestroysActivities(t *testing.T) {
	f := newFx(t)
	a := f.install(t, "com.a", "A")
	rec := f.userStart(t, "com.a")
	a.Kill()
	if rec.State() != Destroyed {
		t.Fatalf("state = %v, want destroyed after process death", rec.State())
	}
	if f.mgr.Foreground() != f.mgr.Launcher().UID {
		t.Fatal("launcher should take over after death")
	}
}

func TestStartRevivesDeadProcess(t *testing.T) {
	f := newFx(t)
	a := f.install(t, "com.a", "A")
	f.userStart(t, "com.a")
	if err := f.mgr.UserQuitApp("com.a"); err != nil {
		t.Fatal(err)
	}
	if a.Alive() {
		t.Fatal("precondition: dead")
	}
	f.userStart(t, "com.a")
	if !a.Alive() {
		t.Fatal("start should revive the process")
	}
	if f.mgr.Foreground() != a.UID {
		t.Fatal("restarted app should be foreground")
	}
}

func TestImplicitSingleMatchStartsDirectly(t *testing.T) {
	f := newFx(t)
	f.install(t, "com.a", "A")
	b := f.install(t, "com.b", "B")
	// Only com.a declares the SEND filter? Both do. Restrict: use two
	// apps where only one matches a custom action.
	custom := f.pm.MustInstall(manifest.NewBuilder("com.only", "Only").
		Activity("Target", true, manifest.IntentFilter{Actions: []string{"act.UNIQUE"}}).
		MustBuild())
	matches, rec, err := f.mgr.StartActivityImplicit(intent.Intent{Sender: b.UID, Action: "act.UNIQUE"})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || rec == nil {
		t.Fatalf("matches=%d rec=%v", len(matches), rec)
	}
	if f.mgr.Foreground() != custom.UID {
		t.Fatal("single-match implicit start should be immediate")
	}
}

func TestImplicitMultiMatchGoesThroughResolver(t *testing.T) {
	f := newFx(t)
	a := f.install(t, "com.a", "A")
	b := f.install(t, "com.b", "B")
	sender := f.install(t, "com.sender", "Sender")
	f.userStart(t, "com.sender")

	matches, rec, err := f.mgr.StartActivityImplicit(intent.Intent{
		Sender:     sender.UID,
		Action:     intent.ActionSend,
		Categories: []string{intent.CategoryDefault},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("multi-match should await resolver choice")
	}
	if len(matches) < 2 || !f.mgr.PendingResolver() {
		t.Fatalf("matches = %d, pending = %v", len(matches), f.mgr.PendingResolver())
	}
	// Resolver (system UI) is now foreground.
	if f.mgr.Top().App().Package() != ResolverPackage {
		t.Fatalf("top = %s, want resolver", f.mgr.Top().FullName())
	}
	// User picks com.b.
	choice := -1
	for i, mt := range matches {
		if mt.App == b {
			choice = i
		}
	}
	started, err := f.mgr.ChooseResolverOption(choice)
	if err != nil {
		t.Fatal(err)
	}
	if started.App() != b || f.mgr.Foreground() != b.UID {
		t.Fatal("chosen app should be foreground")
	}
	// Attribution unwinds the resolver: caller is the original sender.
	want := "Sender->com.b/Main"
	found := false
	for _, s := range f.rec.started {
		if s == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("started = %v, want %s", f.rec.started, want)
	}
	if f.mgr.PendingResolver() {
		t.Fatal("pending should be cleared")
	}
	_ = a
}

func TestChooseResolverErrors(t *testing.T) {
	f := newFx(t)
	if _, err := f.mgr.ChooseResolverOption(0); err == nil {
		t.Fatal("choice without pending accepted")
	}
	f.install(t, "com.a", "A")
	f.install(t, "com.b", "B")
	s := f.install(t, "com.s", "S")
	if _, _, err := f.mgr.StartActivityImplicit(intent.Intent{
		Sender: s.UID, Action: intent.ActionSend, Categories: []string{intent.CategoryDefault},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.ChooseResolverOption(99); err == nil {
		t.Fatal("out-of-range choice accepted")
	}
	// A second implicit multi-match while one is pending is rejected.
	if _, _, err := f.mgr.StartActivityImplicit(intent.Intent{
		Sender: s.UID, Action: intent.ActionSend, Categories: []string{intent.CategoryDefault},
	}); err == nil {
		t.Fatal("second pending resolution accepted")
	}
}

func TestImplicitNoMatchErrors(t *testing.T) {
	f := newFx(t)
	s := f.install(t, "com.s", "S")
	if _, _, err := f.mgr.StartActivityImplicit(intent.Intent{Sender: s.UID, Action: "act.NONE"}); err == nil {
		t.Fatal("no-match implicit start accepted")
	}
}

func TestForegroundChangeEvents(t *testing.T) {
	f := newFx(t)
	f.install(t, "com.a", "A")
	f.userStart(t, "com.a")
	f.mgr.Home(app.UIDSystem)
	// The boot transition (none->Launcher) fires during construction,
	// before hooks attach, so the recorder sees only post-boot changes.
	want := []string{
		"Launcher->A:start",
		"A->Launcher:home",
	}
	if len(f.rec.foreground) != len(want) {
		t.Fatalf("foreground events = %v, want %v", f.rec.foreground, want)
	}
	for i := range want {
		if f.rec.foreground[i] != want[i] {
			t.Fatalf("foreground events = %v, want %v", f.rec.foreground, want)
		}
	}
}

func TestUserInteractionCallback(t *testing.T) {
	f := newFx(t)
	n := 0
	f.mgr.SetUserInteractionFunc(func() { n++ })
	f.install(t, "com.a", "A")
	f.userStart(t, "com.a")
	f.mgr.Home(app.UIDSystem)
	f.mgr.Back()
	if n != 3 {
		t.Fatalf("user interactions = %d, want 3", n)
	}
	// App-initiated home is not a user interaction.
	f.userStart(t, "com.a")
	n = 0
	f.mgr.Home(f.pm.ByPackage("com.a").UID)
	if n != 0 {
		t.Fatal("app-driven home must not reset user-activity timeout")
	}
}

func TestUserStartAppErrors(t *testing.T) {
	f := newFx(t)
	if _, err := f.mgr.UserStartApp("com.none"); err == nil {
		t.Fatal("unknown package accepted")
	}
	f.pm.MustInstall(manifest.NewBuilder("com.svc", "Svc").Service("S", true).MustBuild())
	if _, err := f.mgr.UserStartApp("com.svc"); err == nil {
		t.Fatal("activity-less app accepted")
	}
}

func TestStackSnapshotIsCopy(t *testing.T) {
	f := newFx(t)
	s := f.mgr.Stack()
	s[0] = nil
	if f.mgr.Stack()[0] == nil {
		t.Fatal("Stack() must return a copy")
	}
}

func TestStateAndCauseStrings(t *testing.T) {
	if Resumed.String() != "resumed" || Destroyed.String() != "destroyed" {
		t.Fatal("state names")
	}
	if CauseStart.String() != "start" || CauseProcessDeath.String() != "process-death" {
		t.Fatal("cause names")
	}
	if State(0).String() == "" || CauseKind(0).String() == "" {
		t.Fatal("zero stringers empty")
	}
}

func TestNewManagerNilDeps(t *testing.T) {
	if _, err := NewManager(nil, nil, nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}

// fullNameSink keeps FullName's result escaping, as it does when a
// recorder stores it, so the pin below measures a heap string.
var fullNameSink string

// A record's full name is built once: lifecycle transitions pass it to
// the recorder (nil or not) and must not concatenate it every time.
func TestFullNameAllocatesNothingAfterFirstCall(t *testing.T) {
	f := newFx(t)
	a := f.mgr.Top()
	want := manifest.FullComponentName(a.App().Package(), a.Component())
	if got := a.FullName(); got != want {
		t.Fatalf("FullName = %q, want %q", got, want)
	}
	avg := testing.AllocsPerRun(100, func() { fullNameSink = a.FullName() })
	if avg != 0 {
		t.Fatalf("FullName allocates %.1f objects after its first call, want 0", avg)
	}
	if fullNameSink != want {
		t.Fatalf("cached FullName = %q, want %q", fullNameSink, want)
	}
}
