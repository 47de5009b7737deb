package app

import (
	"testing"
	"testing/quick"

	"repro/internal/manifest"
)

func demoManifest(pkg, label string) *manifest.Manifest {
	return manifest.NewBuilder(pkg, label).
		Activity("Main", true).
		Service("Work", true).
		MustBuild()
}

func TestInstallAssignsSequentialUIDs(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.a", "A"))
	b := pm.MustInstall(demoManifest("com.b", "B"))
	if a.UID != FirstAppUID || b.UID != FirstAppUID+1 {
		t.Fatalf("uids = %d, %d", a.UID, b.UID)
	}
	if !a.Alive() {
		t.Fatal("installed app should be alive")
	}
}

func TestInstallRejectsDuplicatePackage(t *testing.T) {
	pm := NewPackageManager()
	pm.MustInstall(demoManifest("com.a", "A"))
	if _, err := pm.Install(demoManifest("com.a", "A2")); err == nil {
		t.Fatal("want duplicate-package error")
	}
}

func TestInstallRejectsInvalidManifest(t *testing.T) {
	pm := NewPackageManager()
	if _, err := pm.Install(&manifest.Manifest{}); err == nil {
		t.Fatal("want validation error")
	}
}

func TestLookups(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.a", "A"))
	if pm.ByUID(a.UID) != a || pm.ByPackage("com.a") != a {
		t.Fatal("lookup mismatch")
	}
	if pm.ByUID(999) != nil || pm.ByPackage("nope") != nil {
		t.Fatal("missing lookups should be nil")
	}
}

func TestAppsSorted(t *testing.T) {
	pm := NewPackageManager()
	for _, pkg := range []string{"com.c", "com.a", "com.b"} {
		pm.MustInstall(demoManifest(pkg, pkg))
	}
	apps := pm.Apps()
	if len(apps) != 3 {
		t.Fatalf("len = %d", len(apps))
	}
	for i := 1; i < len(apps); i++ {
		if apps[i].UID <= apps[i-1].UID {
			t.Fatal("apps not sorted by UID")
		}
	}
}

func TestSystemInstall(t *testing.T) {
	pm := NewPackageManager()
	a, err := pm.InstallSystem(demoManifest("android.launcher", "Launcher"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.System {
		t.Fatal("system flag not set")
	}
}

func TestLabels(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.a", "Alpha"))
	tests := []struct {
		uid  UID
		want string
	}{
		{a.UID, "Alpha"},
		{UIDScreen, "Screen"},
		{UIDSystem, "System"},
		{UIDNone, "(none)"},
		{555, "uid:555"},
	}
	for _, tt := range tests {
		if got := pm.Label(tt.uid); got != tt.want {
			t.Errorf("Label(%d) = %q, want %q", tt.uid, got, tt.want)
		}
	}
}

func TestLabelFallsBackToPackage(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(manifest.NewBuilder("com.nolabel", "").Activity("M", false).MustBuild())
	if got := a.Label(); got != "com.nolabel" {
		t.Fatalf("Label() = %q", got)
	}
}

func TestWorkloadAttachment(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.a", "A"))
	w := Workload{CPUActive: 0.5, CPUBackground: 0.05, Camera: true}
	if err := a.SetWorkload("Main", w); err != nil {
		t.Fatal(err)
	}
	got := a.Workload("Main")
	if got.CPUActive != 0.5 || !got.Camera {
		t.Fatalf("workload = %+v", got)
	}
	if a.Workload("Work") != (Workload{}) {
		t.Fatal("unset workload should be zero")
	}
	if err := a.SetWorkload("Missing", w); err == nil {
		t.Fatal("want error for unknown component")
	}
}

// Workloads follow the manifest's component order: a component
// appended after the first SetWorkload reads zero until it gets a
// profile of its own, and profiling it leaves the others alone.
func TestWorkloadForAppendedComponent(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.a", "A"))
	main := Workload{CPUActive: 0.5}
	if err := a.SetWorkload("Main", main); err != nil {
		t.Fatal(err)
	}
	m := *a.Manifest
	m.Components = append(m.Components[:len(m.Components):len(m.Components)],
		manifest.Component{Kind: manifest.KindReceiver, Name: "Late"})
	a.Manifest = &m
	if got := a.Workload("Late"); got != (Workload{}) {
		t.Fatalf("appended component workload = %+v, want zero", got)
	}
	late := Workload{CPUActive: 0.2, GPS: true}
	if err := a.SetWorkload("Late", late); err != nil {
		t.Fatal(err)
	}
	if a.Workload("Late") != late || a.Workload("Main") != main || a.Workload("Work") != (Workload{}) {
		t.Fatalf("workloads Main %+v, Work %+v, Late %+v",
			a.Workload("Main"), a.Workload("Work"), a.Workload("Late"))
	}
}

func TestWorkloadClamp(t *testing.T) {
	w := Workload{CPUActive: 1.5, CPUBackground: -0.2}.Clamp()
	if w.CPUActive != 1 || w.CPUBackground != 0 {
		t.Fatalf("clamp = %+v", w)
	}
}

func TestKillFiresDeathRecipients(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.a", "A"))
	var order []int
	a.LinkToDeath(func() { order = append(order, 1) })
	a.LinkToDeath(func() { order = append(order, 2) })
	a.Kill()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("death order = %v", order)
	}
	if a.Alive() {
		t.Fatal("app should be dead")
	}
	// Second kill is a no-op.
	a.Kill()
	if len(order) != 2 {
		t.Fatal("recipients fired twice")
	}
}

func TestLinkToDeathOnDeadProcessFiresImmediately(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.a", "A"))
	a.Kill()
	fired := false
	a.LinkToDeath(func() { fired = true })
	if !fired {
		t.Fatal("recipient on dead process should fire immediately")
	}
}

func TestRevive(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.a", "A"))
	a.Kill()
	a.Revive()
	if !a.Alive() {
		t.Fatal("revive failed")
	}
	// Recipients from before the kill must not survive into the new
	// process lifetime.
	fired := false
	a.LinkToDeath(func() { fired = true })
	a.Kill()
	if !fired {
		t.Fatal("new recipient should fire")
	}
}

// Property: clamped workloads always land in [0, 1].
func TestPropertyWorkloadClampBounds(t *testing.T) {
	prop := func(active, bg float64) bool {
		w := Workload{CPUActive: active, CPUBackground: bg}.Clamp()
		return w.CPUActive >= 0 && w.CPUActive <= 1 &&
			w.CPUBackground >= 0 && w.CPUBackground <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every installed app gets a unique UID ≥ FirstAppUID.
func TestPropertyUniqueUIDs(t *testing.T) {
	prop := func(n uint8) bool {
		pm := NewPackageManager()
		seen := map[UID]bool{}
		for i := 0; i < int(n%32); i++ {
			a := pm.MustInstall(demoManifest(
				"com.p"+string(rune('a'+i%26))+string(rune('a'+i/26)), "x"))
			if a.UID < FirstAppUID || seen[a.UID] {
				return false
			}
			seen[a.UID] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUninstall(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.a", "A"))
	died := false
	a.LinkToDeath(func() { died = true })
	if err := pm.Uninstall("com.a"); err != nil {
		t.Fatal(err)
	}
	if !died {
		t.Fatal("uninstall should kill the process")
	}
	if pm.ByPackage("com.a") != nil || pm.ByUID(a.UID) != nil {
		t.Fatal("uninstalled app still resolvable")
	}
	if err := pm.Uninstall("com.a"); err == nil {
		t.Fatal("double uninstall accepted")
	}
	sys, err := pm.InstallSystem(demoManifest("android.sys", "Sys"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.Uninstall(sys.Package()); err == nil {
		t.Fatal("system uninstall accepted")
	}
}

func TestUninstallTombstoneLabel(t *testing.T) {
	pm := NewPackageManager()
	pm.MustInstall(demoManifest("com.gone", "Gone"))
	uid := pm.ByPackage("com.gone").UID
	if err := pm.Uninstall("com.gone"); err != nil {
		t.Fatal(err)
	}
	if got := pm.Label(uid); got != "Gone (uninstalled)" {
		t.Fatalf("label = %q", got)
	}
}

func TestUninstallHookFires(t *testing.T) {
	pm := NewPackageManager()
	a := pm.MustInstall(demoManifest("com.h", "H"))
	var got UID
	pm.AddUninstallHook(func(x *App) { got = x.UID })
	if err := pm.Uninstall("com.h"); err != nil {
		t.Fatal(err)
	}
	if got != a.UID {
		t.Fatalf("hook uid = %d, want %d", got, a.UID)
	}
}
