package service

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
	events []string
}

func (r *recorder) ServiceStarted(t sim.Time, caller app.UID, svc *Service) {
	r.events = append(r.events, fmt.Sprintf("start:%d:%s", caller, svc.FullName()))
}

func (r *recorder) ServiceStopped(t sim.Time, caller app.UID, svc *Service, kind StopKind) {
	r.events = append(r.events, fmt.Sprintf("stop:%d:%s:%s", caller, svc.FullName(), kind))
}

func (r *recorder) ServiceBound(t sim.Time, conn *Connection) {
	r.events = append(r.events, fmt.Sprintf("bind:%d:%s", conn.Client, conn.Service().FullName()))
}

func (r *recorder) ServiceUnbound(t sim.Time, conn *Connection, cause UnbindCause) {
	r.events = append(r.events, fmt.Sprintf("unbind:%d:%s:%s", conn.Client, conn.Service().FullName(), cause))
}

func (r *recorder) ServiceRunning(t sim.Time, svc *Service, running bool) {
	r.events = append(r.events, fmt.Sprintf("running:%s:%v", svc.FullName(), running))
}

type fx struct {
	engine *sim.Engine
	meter  *hw.Meter
	pm     *app.PackageManager
	mgr    *Manager
	rec    *recorder
	victim *app.App
	mal    *app.App
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
	rec := &recorder{}
	mgr.AddHooks(rec)

	victim := pm.MustInstall(manifest.NewBuilder("com.victim", "Victim").
		Activity("Main", true).
		Service("Work", true).
		Service("Hidden", false).
		MustBuild())
	if err := victim.SetWorkload("Work", app.Workload{CPUActive: 0.3}); err != nil {
		t.Fatal(err)
	}
	mal := pm.MustInstall(manifest.NewBuilder("com.mal", "Mal").
		Activity("Main", true).
		MustBuild())
	return &fx{engine: e, meter: meter, pm: pm, mgr: mgr, rec: rec, victim: victim, mal: mal}
}

func (f *fx) start(t *testing.T, sender app.UID) *Service {
	t.Helper()
	svc, err := f.mgr.Start(intent.Intent{Sender: sender, Component: "com.victim/Work"})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func (f *fx) bind(t *testing.T, sender app.UID) *Connection {
	t.Helper()
	conn, err := f.mgr.Bind(intent.Intent{Sender: sender, Component: "com.victim/Work"})
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestStartStopLifecycle(t *testing.T) {
	f := newFx(t)
	svc := f.start(t, f.victim.UID)
	if !svc.Running() || !svc.Started() {
		t.Fatal("service should run after start")
	}
	if got := f.meter.CPUUtil(f.victim.UID); got != 0.3 {
		t.Fatalf("cpu util = %v, want 0.3", got)
	}
	if err := f.mgr.Stop(f.victim.UID, "com.victim/Work"); err != nil {
		t.Fatal(err)
	}
	if svc.Running() {
		t.Fatal("service should stop")
	}
	if got := f.meter.CPUUtil(f.victim.UID); got != 0 {
		t.Fatalf("cpu util = %v, want 0", got)
	}
}

func TestStopSelf(t *testing.T) {
	f := newFx(t)
	svc := f.start(t, f.victim.UID)
	if err := f.mgr.StopSelfService(svc); err != nil {
		t.Fatal(err)
	}
	if svc.Running() {
		t.Fatal("stopSelf should stop service")
	}
	if err := f.mgr.StopSelfService(svc); err == nil {
		t.Fatal("stopSelf on stopped service accepted")
	}
}

func TestStopErrors(t *testing.T) {
	f := newFx(t)
	if err := f.mgr.Stop(f.victim.UID, "com.victim/Work"); err == nil {
		t.Fatal("stop of never-started service accepted")
	}
}

func TestStartedServiceSurvivesCallerExit(t *testing.T) {
	// "A started service will not be terminated even [when] the started
	// component is destroyed."
	f := newFx(t)
	svc := f.start(t, f.mal.UID)
	f.mal.Kill()
	if !svc.Running() {
		t.Fatal("started service must survive its starter's death")
	}
}

func TestAttack3BindWithoutUnbindPinsService(t *testing.T) {
	// The paper's attack #3: the victim starts and immediately stops its
	// own service, but a malicious binding keeps it running forever.
	f := newFx(t)
	svc := f.start(t, f.victim.UID)
	f.bind(t, f.mal.UID)
	if err := f.mgr.Stop(f.victim.UID, "com.victim/Work"); err != nil {
		t.Fatal(err)
	}
	if !svc.Running() {
		t.Fatal("bound service must survive stopService — attack #3 broken")
	}
	if f.meter.CPUUtil(f.victim.UID) != 0.3 {
		t.Fatal("pinned service should keep drawing CPU")
	}
}

func TestUnbindStopsServiceWhenLastLinkDrops(t *testing.T) {
	f := newFx(t)
	c1 := f.bind(t, f.mal.UID)
	c2 := f.bind(t, f.victim.UID)
	svc := c1.Service()
	if !svc.Running() || svc.Bindings() != 2 {
		t.Fatalf("running=%v bindings=%d", svc.Running(), svc.Bindings())
	}
	if err := f.mgr.Unbind(c1); err != nil {
		t.Fatal(err)
	}
	if !svc.Running() {
		t.Fatal("service should survive while one binding lives")
	}
	if err := f.mgr.Unbind(c2); err != nil {
		t.Fatal(err)
	}
	if svc.Running() {
		t.Fatal("service should stop after all unbinds")
	}
	if err := f.mgr.Unbind(c2); err == nil {
		t.Fatal("double unbind accepted")
	}
}

func TestClientDeathUnbinds(t *testing.T) {
	f := newFx(t)
	conn := f.bind(t, f.mal.UID)
	svc := conn.Service()
	f.mal.Kill()
	if conn.Bound() || svc.Running() {
		t.Fatal("client death should unbind and stop service")
	}
	found := false
	for _, ev := range f.rec.events {
		if ev == fmt.Sprintf("unbind:%d:com.victim/Work:client-death", f.mal.UID) {
			found = true
		}
	}
	if !found {
		t.Fatalf("events = %v, want client-death unbind", f.rec.events)
	}
}

func TestOwnerDeathStopsEverything(t *testing.T) {
	f := newFx(t)
	svc := f.start(t, f.victim.UID)
	f.bind(t, f.mal.UID)
	f.victim.Kill()
	if svc.Running() || svc.Bindings() != 0 {
		t.Fatal("owner death should tear down the service")
	}
	if f.meter.CPUUtil(f.victim.UID) != 0 {
		t.Fatal("dead service still draws CPU")
	}
}

func TestExportEnforcement(t *testing.T) {
	f := newFx(t)
	if _, err := f.mgr.Start(intent.Intent{Sender: f.mal.UID, Component: "com.victim/Hidden"}); err == nil {
		t.Fatal("cross-app start of unexported service accepted")
	}
	if _, err := f.mgr.Bind(intent.Intent{Sender: f.mal.UID, Component: "com.victim/Hidden"}); err == nil {
		t.Fatal("cross-app bind of unexported service accepted")
	}
	// Same app may use it.
	if _, err := f.mgr.Start(intent.Intent{Sender: f.victim.UID, Component: "com.victim/Hidden"}); err != nil {
		t.Fatal(err)
	}
}

func TestBindErrors(t *testing.T) {
	f := newFx(t)
	if _, err := f.mgr.Bind(intent.Intent{Sender: 999, Component: "com.victim/Work"}); err == nil {
		t.Fatal("unknown client accepted")
	}
	f.mal.Kill()
	if _, err := f.mgr.Bind(intent.Intent{Sender: f.mal.UID, Component: "com.victim/Work"}); err == nil {
		t.Fatal("dead client accepted")
	}
}

func TestStartRevivesOwner(t *testing.T) {
	f := newFx(t)
	f.victim.Kill()
	svc := f.start(t, f.mal.UID)
	if !f.victim.Alive() || !svc.Running() {
		t.Fatal("start should revive the owner process")
	}
}

func TestSameInstanceReused(t *testing.T) {
	f := newFx(t)
	s1 := f.start(t, f.victim.UID)
	s2 := f.start(t, f.mal.UID)
	if s1 != s2 {
		t.Fatal("start must reuse the same service instance")
	}
	if f.mgr.Lookup("com.victim/Work") != s1 {
		t.Fatal("lookup mismatch")
	}
	if f.mgr.Lookup("com.victim/Nope") != nil {
		t.Fatal("missing lookup should be nil")
	}
}

func TestRunningList(t *testing.T) {
	f := newFx(t)
	if len(f.mgr.Running()) != 0 {
		t.Fatal("no services running yet")
	}
	f.start(t, f.victim.UID)
	running := f.mgr.Running()
	if len(running) != 1 || running[0].FullName() != "com.victim/Work" {
		t.Fatalf("running = %v", running)
	}
}

func TestRunningChangedEventsFireOnce(t *testing.T) {
	f := newFx(t)
	f.start(t, f.victim.UID)
	f.bind(t, f.mal.UID) // already running: no extra running event
	count := 0
	for _, ev := range f.rec.events {
		if ev == "running:com.victim/Work:true" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("running:true fired %d times, want 1", count)
	}
}

func TestStringers(t *testing.T) {
	if StopService.String() != "stopService" || StopSelf.String() != "stopSelf" {
		t.Fatal("stop kinds")
	}
	if UnbindExplicit.String() != "explicit" || UnbindClientDeath.String() != "client-death" {
		t.Fatal("unbind causes")
	}
	if StopKind(0).String() == "" || UnbindCause(0).String() == "" {
		t.Fatal("zero stringers")
	}
}

func TestNewManagerNilDeps(t *testing.T) {
	if _, err := NewManager(nil, nil, nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}
