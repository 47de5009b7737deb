package corpus

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/scenario"
)

// One generator reused across every cell, seed and horizon, in shuffled
// order and after failed calls, yields exactly the scripts fresh
// Generate calls do: nothing of one script survives into the next.
func TestReusedGeneratorMatchesGenerate(t *testing.T) {
	type job struct {
		cell Cell
		seed int64
		p    Params
	}
	var jobs []job
	for _, cell := range Cells() {
		for _, seed := range []int64{1, 0x5eedc0de, -7} {
			jobs = append(jobs,
				job{cell, seed, Params{Horizon: MinHorizon}},
				job{cell, seed, Params{}})
		}
	}
	// A bad variant fails after the benign walk has filled the buffers.
	bad := job{Cell{Archetype: ArchGamer, Variant: "bogus"}, 3, Params{}}
	jobs = append(jobs, bad, bad)
	rand.New(rand.NewSource(11)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	var g generator
	for _, j := range jobs {
		want, wantErr := Generate(j.cell, j.seed, j.p)
		err := g.generate(j.cell, j.seed, j.p)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s seed %d: reused generator err %v, fresh err %v", j.cell, j.seed, err, wantErr)
		}
		if err != nil {
			continue
		}
		if len(want.Steps) == 0 {
			t.Fatalf("%s seed %d: empty script; the comparison needs steps", j.cell, j.seed)
		}
		if !reflect.DeepEqual(&g.s, want) {
			t.Fatalf("%s seed %d horizon %v: reused generator's script differs from Generate's",
				j.cell, j.seed, j.p.Horizon)
		}
	}
}

// playWorld builds the world the fleet's population devices run on.
func playWorld(t *testing.T) *scenario.World {
	t.Helper()
	w, err := scenario.NewWorldWith(device.Config{EAndroid: true, Policy: accounting.BatteryStats},
		scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Play leaves a world exactly as Generate followed by Apply does, also
// when the pooled generator last built a longer script of another cell.
func TestPlayMatchesGenerateApply(t *testing.T) {
	warm := Cell{Archetype: ArchBackgroundHeavy, Variant: VarIntermittent}
	for _, cell := range []Cell{
		{Archetype: ArchCommuter, Variant: VarBenign},
		{Archetype: ArchGamer, Variant: VarCoordinated},
		{Archetype: ArchIdleMostly, Variant: VarChargingAware},
	} {
		if err := Play(playWorld(t), warm, 99, Params{}); err != nil {
			t.Fatal(err)
		}
		p := Params{Horizon: 2 * time.Hour}
		played := playWorld(t)
		if err := Play(played, cell, 5, p); err != nil {
			t.Fatalf("%s: Play: %v", cell, err)
		}
		applied := playWorld(t)
		s, err := Generate(cell, 5, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(applied); err != nil {
			t.Fatalf("%s: Apply: %v", cell, err)
		}
		for _, w := range []*scenario.World{played, applied} {
			w.Dev.Flush()
		}
		a, b := played.Dev, applied.Dev
		if !reflect.DeepEqual(a.Android.Entries(), b.Android.Entries()) {
			t.Fatalf("%s: ledgers differ:\nPlay:  %+v\nApply: %+v", cell, a.Android.Entries(), b.Android.Entries())
		}
		if a.Battery.DrainedJ() != b.Battery.DrainedJ() || a.Engine.Now() != b.Engine.Now() {
			t.Fatalf("%s: Play drained %v J by %v, Apply %v J by %v", cell,
				a.Battery.DrainedJ(), a.Engine.Now(), b.Battery.DrainedJ(), b.Engine.Now())
		}
		uid := played.Malware.UID
		if !cell.Variant.Benign() && len(b.EAndroid.Attacks()) == 0 {
			t.Fatalf("%s: attack cell recorded no attack; the comparison needs one", cell)
		}
		if len(a.EAndroid.Attacks()) != len(b.EAndroid.Attacks()) ||
			a.EAndroid.CollateralJ(uid) != b.EAndroid.CollateralJ(uid) {
			t.Fatalf("%s: Play recorded %d attacks and %v J collateral, Apply %d and %v J", cell,
				len(a.EAndroid.Attacks()), a.EAndroid.CollateralJ(uid),
				len(b.EAndroid.Attacks()), b.EAndroid.CollateralJ(uid))
		}
	}
}

// A warm generator builds a script without allocating: the step list,
// the idle segments and the random source are all reused.
func TestWarmGeneratorAllocatesNothing(t *testing.T) {
	for _, h := range []time.Duration{MinHorizon, DefaultHorizon} {
		var g generator
		p := Params{Horizon: h}
		for _, cell := range Cells() {
			if err := g.generate(cell, 42, p); err != nil {
				t.Fatal(err)
			}
		}
		for _, cell := range Cells() {
			allocs := testing.AllocsPerRun(10, func() {
				if err := g.generate(cell, 42, p); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s horizon %v: warm generator allocated %v times per script, want 0", cell, h, allocs)
			}
		}
	}
}

// The model ModelFor returns is the caller's: changing it changes no
// later script.
func TestModelForReturnsCallersOwnModel(t *testing.T) {
	cell := Cell{Archetype: ArchCommuter, Variant: VarIntermittent}
	before, err := Generate(cell, 7, Params{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelFor(ArchCommuter)
	if err != nil {
		t.Fatal(err)
	}
	m.Trans[stIdle][stMessage], m.Trans[stIdle][stGame] = 0, 0.5
	m.States[stIdle].MinDwell, m.States[stIdle].MaxDwell = time.Second, time.Second
	m.States[stMessage].Pkg = "com.example.other"
	after, err := Generate(cell, 7, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("changing a model ModelFor returned changed a generated script")
	}
}
