package hw

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
)

func TestDVFSProfileValidates(t *testing.T) {
	if err := Nexus4DVFS().Validate(); err != nil {
		t.Fatal(err)
	}
	p := Nexus4DVFS()
	p.CPUFreqs[0].MHz = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative MHz accepted")
	}
	p = Nexus4DVFS()
	p.CPUFreqs[1].MHz = p.CPUFreqs[0].MHz
	if err := p.Validate(); err == nil {
		t.Fatal("non-ascending ladder accepted")
	}
	p = Nexus4DVFS()
	p.CPUFreqs[1].ActiveMW = p.CPUFreqs[0].ActiveMW - 1
	if err := p.Validate(); err == nil {
		t.Fatal("non-monotone power accepted")
	}
}

func TestGovernorPicksLowestSufficientLevel(t *testing.T) {
	p := Nexus4DVFS()
	top := float64(p.CPUFreqs[len(p.CPUFreqs)-1].MHz)
	tests := []struct {
		util    float64
		wantMHz int
	}{
		{0.0, 384},
		{0.2, 384},  // 384/1512 ≈ 0.254 covers 0.2
		{0.3, 702},  // needs > 0.254
		{0.5, 1026}, // 1026/1512 ≈ 0.679
		{0.7, 1242}, // 1242/1512 ≈ 0.821
		{0.9, 1512},
		{1.0, 1512},
	}
	for _, tt := range tests {
		if got := p.governorLevel(tt.util).MHz; got != tt.wantMHz {
			t.Errorf("governor(%v) = %d MHz, want %d (top %v)", tt.util, got, tt.wantMHz, top)
		}
	}
}

func TestDVFSLightLoadCheaperThanLinear(t *testing.T) {
	// At 20% total load the governor runs at 384 MHz: the marginal CPU
	// cost must be well below the top-frequency linear cost.
	p := Nexus4DVFS()
	light := p.effectiveCPUFullMW(0.2)
	heavy := p.effectiveCPUFullMW(1.0)
	if light >= heavy {
		t.Fatalf("light marginal %v should be < heavy %v", light, heavy)
	}
	if heavy != p.CPUFreqs[len(p.CPUFreqs)-1].ActiveMW {
		t.Fatalf("full-load marginal = %v, want top ActiveMW", heavy)
	}
}

func TestLinearModelUnchangedWithoutLadder(t *testing.T) {
	p := Nexus4()
	if got := p.effectiveCPUFullMW(0.3); got != p.CPUFull {
		t.Fatalf("linear marginal = %v, want CPUFull", got)
	}
}

func TestDVFSEnergyIntegration(t *testing.T) {
	e := sim.NewEngine()
	b, err := NewBattery(NexusBatteryJ)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeter(e.Now, Nexus4DVFS(), b)
	if err != nil {
		t.Fatal(err)
	}
	var cpuJ float64
	m.AddSink(SinkFunc(func(iv Interval) {
		iv.EachApp(func(_ app.UID, u *UsageRow) {
			cpuJ += u.J(CPU)
		})
	}))
	m.SetCPUUtil(1, 0.2) // runs at 384 MHz
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	p := Nexus4DVFS()
	want := 0.2 * p.effectiveCPUFullMW(0.2) / 1000 * 10
	if math.Abs(cpuJ-want) > 1e-9 {
		t.Fatalf("cpu energy = %v, want %v", cpuJ, want)
	}
	// The same work under the linear model costs more.
	linear := 0.2 * Nexus4().CPUFull / 1000 * 10
	if cpuJ >= linear {
		t.Fatalf("dvfs energy %v should be < linear %v at light load", cpuJ, linear)
	}
}

func TestDVFSSecondAppRaisesFrequencyForBoth(t *testing.T) {
	// When a second app pushes the total load past a capacity step, the
	// governor raises the frequency and everyone's marginal cost rises —
	// the coupling a linear model cannot express.
	e := sim.NewEngine()
	b, _ := NewBattery(NexusBatteryJ)
	m, _ := NewMeter(e.Now, Nexus4DVFS(), b)
	per := map[int]float64{}
	m.AddSink(SinkFunc(func(iv Interval) {
		iv.EachApp(func(uid app.UID, u *UsageRow) {
			per[int(uid)] += u.J(CPU)
		})
	}))
	m.SetCPUUtil(1, 0.2)
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.SetCPUUtil(2, 0.5) // total 0.7 -> 1242 MHz
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	p := Nexus4DVFS()
	phase1 := 0.2 * p.effectiveCPUFullMW(0.2) / 1000 * 10
	phase2 := 0.2 * p.effectiveCPUFullMW(0.7) / 1000 * 10
	if math.Abs(per[1]-(phase1+phase2)) > 1e-9 {
		t.Fatalf("uid1 energy = %v, want %v", per[1], phase1+phase2)
	}
	if phase2 <= phase1 {
		t.Fatal("frequency raise should increase uid1's cost")
	}
}

// Property: the marginal cost is monotone non-decreasing in total load
// and bounded by the ladder's endpoints.
func TestPropertyDVFSMarginalMonotone(t *testing.T) {
	p := Nexus4DVFS()
	top := p.CPUFreqs[len(p.CPUFreqs)-1]
	bottomMarginal := p.effectiveCPUFullMW(0)
	prop := func(a, b float64) bool {
		ua := math.Abs(math.Mod(a, 1))
		ub := math.Abs(math.Mod(b, 1))
		if ua > ub {
			ua, ub = ub, ua
		}
		ma := p.effectiveCPUFullMW(ua)
		mb := p.effectiveCPUFullMW(ub)
		return ma <= mb+1e-9 &&
			ma >= bottomMarginal-1e-9 &&
			mb <= top.ActiveMW/(float64(p.CPUFreqs[0].MHz)/float64(top.MHz))+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
