package hw

import (
	"math"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
)

func aggFixture(t *testing.T) (*sim.Engine, *Meter, *Aggregator) {
	t.Helper()
	e := sim.NewEngine(1)
	b, err := NewBattery(NexusBatteryJ)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeter(e.Now, Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewAggregator(m)
	if err != nil {
		t.Fatal(err)
	}
	return e, m, g
}

func TestAggregatorSumsCPU(t *testing.T) {
	_, m, g := aggFixture(t)
	k1, k2 := new(int), new(int)
	if err := g.Set(k1, 10, Demand{CPUUtil: 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := g.Set(k2, 10, Demand{CPUUtil: 0.2}); err != nil {
		t.Fatal(err)
	}
	if got := m.CPUUtil(10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("meter util = %v, want 0.5", got)
	}
	// Replace k1's demand.
	if err := g.Set(k1, 10, Demand{CPUUtil: 0.1}); err != nil {
		t.Fatal(err)
	}
	if got := m.CPUUtil(10); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("meter util = %v, want 0.3", got)
	}
	if err := g.Clear(k1); err != nil {
		t.Fatal(err)
	}
	if err := g.Clear(k2); err != nil {
		t.Fatal(err)
	}
	if got := m.CPUUtil(10); got != 0 {
		t.Fatalf("meter util = %v, want 0", got)
	}
}

func TestAggregatorClampsAtMeter(t *testing.T) {
	_, m, g := aggFixture(t)
	k1, k2 := new(int), new(int)
	_ = g.Set(k1, 10, Demand{CPUUtil: 0.8})
	_ = g.Set(k2, 10, Demand{CPUUtil: 0.8})
	if got := m.CPUUtil(10); got != 1 {
		t.Fatalf("meter util = %v, want clamp 1", got)
	}
	// Removing one entry must drop the clamped value correctly.
	if err := g.Clear(k2); err != nil {
		t.Fatal(err)
	}
	if got := m.CPUUtil(10); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("meter util = %v, want 0.8", got)
	}
}

func TestAggregatorPeripherals(t *testing.T) {
	_, m, g := aggFixture(t)
	k := new(int)
	if err := g.Set(k, 7, Demand{Camera: true, GPS: true}); err != nil {
		t.Fatal(err)
	}
	if !m.Holding(Camera, 7) || !m.Holding(GPS, 7) {
		t.Fatal("holds not applied")
	}
	if err := g.Set(k, 7, Demand{Camera: true}); err != nil {
		t.Fatal(err)
	}
	if m.Holding(GPS, 7) {
		t.Fatal("gps hold should be released")
	}
	if !m.Holding(Camera, 7) {
		t.Fatal("camera hold should persist")
	}
	if err := g.Clear(k); err != nil {
		t.Fatal(err)
	}
	if m.Holding(Camera, 7) {
		t.Fatal("clear should release camera")
	}
}

func TestAggregatorRejectsUIDMigration(t *testing.T) {
	_, _, g := aggFixture(t)
	k := new(int)
	_ = g.Set(k, 1, Demand{CPUUtil: 0.5})
	if err := g.Set(k, 2, Demand{CPUUtil: 0.5}); err == nil {
		t.Fatal("uid migration accepted")
	}
}

func TestAggregatorNilKey(t *testing.T) {
	_, _, g := aggFixture(t)
	if err := g.Set(nil, 1, Demand{}); err == nil {
		t.Fatal("nil key accepted")
	}
}

func TestAggregatorClearAbsentKeyNoop(t *testing.T) {
	_, _, g := aggFixture(t)
	if err := g.Clear(new(int)); err != nil {
		t.Fatal(err)
	}
}

// TestAggregatorGeneration: every Set or Clear that changes the entries
// advances the generation; a rejected call or a no-op Clear does not.
func TestAggregatorGeneration(t *testing.T) {
	_, m, g := aggFixture(t)
	k, cam := new(int), new(int)
	steps := []struct {
		what         string
		do           func() error
		fails, moves bool
	}{
		{"set", func() error { return g.Set(k, 1, Demand{CPUUtil: 0.5}) }, false, true},
		{"replace", func() error { return g.Set(k, 1, Demand{CPUUtil: 0.2}) }, false, true},
		{"rejected migration", func() error { return g.Set(k, 2, Demand{}) }, true, false},
		{"clear", func() error { return g.Clear(k) }, false, true},
		{"clear absent", func() error { return g.Clear(k) }, false, false},
		{"hold camera", func() error { return g.Set(cam, 1, Demand{Camera: true}) }, false, true},
		{"rejected release", func() error {
			// Drop the meter hold behind the aggregator's back, so the
			// release Clear implies has nothing to release.
			if err := m.Release(Camera, 1); err != nil {
				t.Fatal(err)
			}
			return g.Clear(cam)
		}, true, false},
	}
	for _, s := range steps {
		before := g.Generation()
		if err := s.do(); (err != nil) != s.fails {
			t.Fatalf("%s: err = %v", s.what, err)
		}
		if moved := g.Generation() != before; moved != s.moves {
			t.Fatalf("%s: generation moved = %v, want %v", s.what, moved, s.moves)
		}
	}
}

func TestAggregatorClampsNegativeDemand(t *testing.T) {
	_, m, g := aggFixture(t)
	k := new(int)
	if err := g.Set(k, 3, Demand{CPUUtil: -5}); err != nil {
		t.Fatal(err)
	}
	if m.CPUUtil(3) != 0 {
		t.Fatal("negative demand should clamp to 0")
	}
	if err := g.Set(k, 3, Demand{CPUUtil: 5}); err != nil {
		t.Fatal(err)
	}
	if m.CPUUtil(3) != 1 {
		t.Fatal("overlarge demand should clamp to 1")
	}
}

func TestAggregatorEnergyFlow(t *testing.T) {
	e, m, g := aggFixture(t)
	var cpuJ float64
	m.AddSink(SinkFunc(func(iv Interval) {
		iv.EachApp(func(_ app.UID, u *UsageRow) {
			cpuJ += u.J(CPU)
		})
	}))
	k := new(int)
	_ = g.Set(k, 5, Demand{CPUUtil: 0.5})
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	_ = g.Clear(k)
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	want := 0.5 * Nexus4().CPUFull / 1000 * 10
	if math.Abs(cpuJ-want) > 1e-9 {
		t.Fatalf("cpu energy = %v, want %v", cpuJ, want)
	}
}

func TestNewAggregatorNilMeter(t *testing.T) {
	if _, err := NewAggregator(nil); err == nil {
		t.Fatal("nil meter accepted")
	}
}
