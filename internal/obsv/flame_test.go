package obsv

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// flameWorld runs scene #1 with a collector attached and returns the
// folded flame plus the device's total drain.
func flameWorld(t *testing.T) (*Flame, float64) {
	t.Helper()
	w, err := scenario.NewWorld(device.Config{EAndroid: true, Policy: accounting.BatteryStats})
	if err != nil {
		t.Fatal(err)
	}
	fc := AttachFlame(w.Dev)
	if err := w.Scene1MessageFilm(); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	return fc.Fold(), w.Dev.DrainedJ()
}

// TestFlameTotalsMatchDrain: the flame is a lossless re-bucketing of
// the meter's output — its total must equal the battery's drain.
func TestFlameTotalsMatchDrain(t *testing.T) {
	f, drained := flameWorld(t)
	if len(f.Stacks) == 0 {
		t.Fatal("empty flame")
	}
	if diff := math.Abs(f.TotalJ() - drained); diff > 1e-6 {
		t.Fatalf("flame total %.9f J vs drained %.9f J (diff %g)", f.TotalJ(), drained, diff)
	}
}

// TestFlameCollapsedFormat: Brendan Gregg grammar — "a;b;c weight",
// sorted lines, positive integer weights, three-frame stacks.
func TestFlameCollapsedFormat(t *testing.T) {
	f, _ := flameWorld(t)
	var b strings.Builder
	if err := f.WriteCollapsed(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("no collapsed lines")
	}
	var sawCamera bool
	for i, line := range lines {
		if i > 0 && lines[i-1] >= line {
			t.Fatalf("lines not strictly sorted: %q then %q", lines[i-1], line)
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed line %q", line)
		}
		stack, weight := line[:idx], line[idx+1:]
		uj, err := strconv.ParseInt(weight, 10, 64)
		if err != nil || uj <= 0 {
			t.Fatalf("bad weight in %q", line)
		}
		if got := len(strings.Split(stack, ";")); got != 3 {
			t.Fatalf("stack %q has %d frames, want 3 (component;app;entity)", stack, got)
		}
		if strings.Contains(stack, "Camera") {
			sawCamera = true
		}
	}
	if !sawCamera {
		t.Fatalf("no Camera stack in scene #1 flame:\n%s", out)
	}
}

func TestFlameDeterministicAcrossRuns(t *testing.T) {
	render := func() string {
		f, _ := flameWorld(t)
		var b strings.Builder
		if err := f.WriteCollapsed(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatal("two identical runs produced different collapsed flames")
	}
}

func TestMergeFlames(t *testing.T) {
	a := &Flame{Stacks: map[string]float64{"x;a;e": 1, "y;b;e": 2}}
	b := &Flame{Stacks: map[string]float64{"x;a;e": 3}}
	m := MergeFlames(a, nil, b)
	if m.Stacks["x;a;e"] != 4 || m.Stacks["y;b;e"] != 2 || len(m.Stacks) != 2 {
		t.Fatalf("merge = %+v", m.Stacks)
	}
}

func TestFlameHTMLReport(t *testing.T) {
	f, _ := flameWorld(t)
	var b strings.Builder
	if err := f.WriteHTML(&b, "test <title>"); err != nil {
		t.Fatal(err)
	}
	html := b.String()
	for _, want := range []string{"<!DOCTYPE html>", "test &lt;title&gt;", "class=\"frame", "</html>"} {
		if !strings.Contains(html, want) {
			t.Fatalf("HTML report missing %q", want)
		}
	}
	var c strings.Builder
	if err := f.WriteHTML(&c, "test <title>"); err != nil {
		t.Fatal(err)
	}
	if html != c.String() {
		t.Fatal("HTML report is not byte-deterministic")
	}
}

func TestSanitizeFrame(t *testing.T) {
	if got := sanitizeFrame("a;b c\td\ne"); got != "a_b_c_d_e" {
		t.Fatalf("sanitizeFrame = %q", got)
	}
}

// TestFlameSplitsCPUByUtil: an app's CPU joules split across its
// entities proportionally to their utilization demand.
func TestFlameSplitsCPUByUtil(t *testing.T) {
	w, err := scenario.NewWorld(device.Config{EAndroid: true, Policy: accounting.BatteryStats})
	if err != nil {
		t.Fatal(err)
	}
	fc := AttachFlame(w.Dev)
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack3ServicePin(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Flush()
	f := fc.Fold()
	var victimCPU float64
	for stack, j := range f.Stacks {
		if strings.HasPrefix(stack, "cpu;") && strings.Contains(stack, "Victim") {
			victimCPU += j
		}
	}
	if victimCPU <= 0 {
		t.Fatalf("no victim CPU energy in flame: %v", f.Stacks)
	}
}

// entity is a demand key with a stack frame name.
type entity string

func (e *entity) FullName() string { return string(*e) }

// TestFlameSnapshotFollowsDemand: the collector reuses its entity
// snapshot only while the aggregator is unchanged. A new entry, a
// replaced demand and a cleared entry each re-split the next interval.
func TestFlameSnapshotFollowsDemand(t *testing.T) {
	b, err := hw.NewBattery(hw.NexusBatteryJ)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	m, err := hw.NewMeter(e.Now, hw.Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hw.NewAggregator(m)
	if err != nil {
		t.Fatal(err)
	}
	pm := app.NewPackageManager()
	uid := pm.MustInstall(manifest.NewBuilder("com.example.a", "A").Activity("Main", true).MustBuild()).UID
	fc := NewFlameCollector(g, pm)
	iv := hw.NewInterval(0, 0)
	iv.Row(uid).Add(hw.CPU, 1)
	one, two := entity("one"), entity("two")
	for _, step := range []func() error{
		func() error { return g.Set(&one, uid, hw.Demand{CPUUtil: 0.5}) }, // one: 1
		func() error { return g.Set(&two, uid, hw.Demand{CPUUtil: 0.5}) }, // one, two: 0.5 each
		func() error { return g.Set(&one, uid, hw.Demand{}) },             // two: 1
		func() error { return g.Clear(&two) },                             // (self): 1
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		fc.Accrue(iv)
	}
	got := fc.Fold().Stacks
	cpu := "cpu;A#" + strconv.Itoa(int(uid)) + ";"
	want := map[string]float64{cpu + "one": 1.5, cpu + "two": 1.5, cpu + "(self)": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stacks = %v, want %v", got, want)
	}
}

// TestFlameAccrueAllocatesNothing pins FlameCollector.Accrue at zero
// allocations while the aggregator's demand set is unchanged and every
// stack bucket already exists.
func TestFlameAccrueAllocatesNothing(t *testing.T) {
	w, err := scenario.NewWorld(device.Config{EAndroid: true})
	if err != nil {
		t.Fatal(err)
	}
	fc := AttachFlame(w.Dev)
	if err := w.Attack3ServicePin(time.Minute); err != nil {
		t.Fatal(err)
	}
	if w.Dev.Aggregator.Entries() == 0 {
		t.Fatal("aggregator holds no demand entries")
	}
	iv := hw.NewInterval(0, 0)
	w.Dev.Aggregator.EachEntry(func(_ any, uid app.UID, _ hw.Demand) {
		for _, c := range hw.Components() {
			iv.Row(uid).Add(c, 1e-3)
		}
	})
	iv.ScreenJ, iv.SystemJ = 1e-3, 1e-3
	gen := w.Dev.Aggregator.Generation()
	if allocs := testing.AllocsPerRun(100, func() { fc.Accrue(iv) }); allocs != 0 {
		t.Fatalf("Accrue allocated %.1f times per interval, want 0", allocs)
	}
	if w.Dev.Aggregator.Generation() != gen || fc.gen != gen {
		t.Fatalf("generation moved: aggregator %d, snapshot %d, want %d", w.Dev.Aggregator.Generation(), fc.gen, gen)
	}
}
