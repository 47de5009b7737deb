package antutu

import (
	"strings"
	"testing"

	"repro/internal/device"
)

// smallCfg keeps test runtime low.
func smallCfg() Config {
	return Config{IntOps: 100_000, FloatOps: 100_000, MemBytes: 1 << 16, UXOps: 50}
}

func TestRunProducesPositiveScores(t *testing.T) {
	dev, err := device.New(device.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Run(dev, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s.CPUInt <= 0 || s.CPUFloat <= 0 || s.Memory <= 0 || s.UX <= 0 {
		t.Fatalf("scores = %+v", s)
	}
	if s.Total != s.CPUInt+s.CPUFloat+s.Memory+s.UX {
		t.Fatal("total is not the sum of sub-scores")
	}
}

func TestRunReusesBenchApp(t *testing.T) {
	dev, err := device.New(device.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(dev, smallCfg()); err != nil {
		t.Fatal(err)
	}
	// Second run must not fail on duplicate install.
	if _, err := Run(dev, smallCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnEAndroidDevice(t *testing.T) {
	dev, err := device.New(device.Config{EAndroid: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Run(dev, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s.Total <= 0 {
		t.Fatalf("scores = %+v", s)
	}
	// Same-app UX operations are not collateral events: the monitor must
	// not have recorded attacks from the benchmark.
	if len(dev.EAndroid.Attacks()) != 0 {
		t.Fatalf("benchmark produced attacks: %v", dev.EAndroid.Attacks())
	}
}

// The Fig. 11 scores price the E-Android framework, not the invariant
// checker, so Compare's stock and E-Android devices carry none.
func TestCompareDevicesCarryNoChecker(t *testing.T) {
	for _, eandroid := range []bool{false, true} {
		dev, err := newDevice(eandroid)
		if err != nil {
			t.Fatal(err)
		}
		if dev.Checker != nil {
			t.Fatalf("eandroid=%v: the timed device carries an invariant checker", eandroid)
		}
	}
}

func TestCompareRender(t *testing.T) {
	cmp, err := Compare(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := cmp.Render()
	for _, want := range []string{"Figure 11", "total", "cpu-int", "cpu-float", "memory", "ux", "E-Android"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(cmp.Android.String(), "total=") {
		t.Fatal("scores stringer")
	}
}

func TestScaleScoreGuards(t *testing.T) {
	if scaleScore(0, 1000, 1) < 0 {
		t.Fatal("zero duration should not go negative")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.IntOps == 0 || c.FloatOps == 0 || c.MemBytes == 0 || c.UXOps == 0 {
		t.Fatalf("defaults = %+v", c)
	}
}
