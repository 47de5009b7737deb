// Package antutu implements an AnTuTu-style macro benchmark used for the
// paper's Figure 11: CPU integer, CPU floating-point, memory and a
// UX/framework component, scored on a simulated device so the same
// workload can run under stock Android and under E-Android. E-Android
// only adds work on collateral events, so scores should be statistically
// indistinguishable between configurations — which is the figure's claim.
package antutu

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/intent"
	"repro/internal/manifest"
)

// Scores holds the benchmark's sub-scores and total. Bigger is better.
type Scores struct {
	Total    int
	CPUInt   int
	CPUFloat int
	Memory   int
	UX       int
}

func (s Scores) String() string {
	return fmt.Sprintf("total=%d cpu-int=%d cpu-float=%d memory=%d ux=%d",
		s.Total, s.CPUInt, s.CPUFloat, s.Memory, s.UX)
}

// Config controls workload sizes. The zero value selects defaults that
// run in well under a second per configuration.
type Config struct {
	// IntOps is the integer-mix loop count.
	IntOps int
	// FloatOps is the float-mix loop count.
	FloatOps int
	// MemBytes is the working-set size for the memory pass.
	MemBytes int
	// UXOps is the number of framework operations (same-app activity
	// start/finish pairs) — the component that actually crosses the
	// hooked framework paths.
	UXOps int
}

func (c Config) withDefaults() Config {
	if c.IntOps == 0 {
		c.IntOps = 4_000_000
	}
	if c.FloatOps == 0 {
		c.FloatOps = 4_000_000
	}
	if c.MemBytes == 0 {
		c.MemBytes = 8 << 20
	}
	if c.UXOps == 0 {
		c.UXOps = 2_000
	}
	return c
}

// benchPkg is the self-contained app the UX pass drives.
const benchPkg = "com.antutu.bench"

// passes is how many times each sub-test repeats; the median duration
// is scored, which keeps one GC pause or scheduler hiccup from skewing a
// sub-score.
const passes = 5

// Run executes the benchmark on the given device and returns scores.
// The device gains a benchmark app if it doesn't already have one.
func Run(dev *device.Device, cfg Config) (Scores, error) {
	cfg = cfg.withDefaults()
	var s Scores

	s.CPUInt = scaleScore(medianTime(func() { intMix(cfg.IntOps) }), cfg.IntOps, 1)
	s.CPUFloat = scaleScore(medianTime(func() { floatMix(cfg.FloatOps) }), cfg.FloatOps, 1)
	s.Memory = scaleScore(medianTime(func() { memPass(cfg.MemBytes) }), cfg.MemBytes, 8)

	var uxSamples []time.Duration
	for i := 0; i < passes; i++ {
		d, err := uxPass(dev, cfg.UXOps)
		if err != nil {
			return Scores{}, err
		}
		uxSamples = append(uxSamples, d)
	}
	s.UX = scaleScore(median(uxSamples), cfg.UXOps, 2000)

	s.Total = s.CPUInt + s.CPUFloat + s.Memory + s.UX
	return s, nil
}

func medianTime(fn func()) time.Duration {
	samples := make([]time.Duration, passes)
	for i := range samples {
		start := time.Now()
		fn()
		samples[i] = time.Since(start)
	}
	return median(samples)
}

func median(samples []time.Duration) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// scaleScore converts ops/second into a score with a per-test scale so
// sub-scores land in comparable magnitudes.
func scaleScore(d time.Duration, ops int, scale float64) int {
	if d <= 0 {
		d = time.Nanosecond
	}
	perSec := float64(ops) / d.Seconds()
	return int(perSec / 1000 * scale / 1000)
}

var intSink uint64

func intMix(n int) {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += uint64(i)
	}
	intSink = x
}

var floatSink float64

func floatMix(n int) {
	x, y := 1.0001, 0.5
	for i := 0; i < n; i++ {
		x = float64(x*y) + 0.0001
		y = y/x + 0.0001
		if x > 1e6 {
			x = 1.0001
		}
	}
	floatSink = x + y
}

var memSink byte

func memPass(bytes int) {
	src := make([]byte, bytes)
	dst := make([]byte, bytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src)
	var acc byte
	for _, b := range dst {
		acc ^= b
	}
	memSink = acc
}

// uxPass drives same-app activity start/finish pairs through the
// framework — the path E-Android hooks — and times them.
func uxPass(dev *device.Device, ops int) (time.Duration, error) {
	bench := dev.Packages.ByPackage(benchPkg)
	if bench == nil {
		var err error
		bench, err = dev.Packages.Install(manifest.NewBuilder(benchPkg, "AnTuTu").
			Activity("Main", true).
			Activity("Page", false).
			MustBuild())
		if err != nil {
			return 0, err
		}
	}
	if _, err := dev.Activities.UserStartApp(benchPkg); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		rec, err := dev.Activities.StartActivity(intent.Intent{
			Sender:    bench.UID,
			Component: benchPkg + "/Page",
		})
		if err != nil {
			return 0, err
		}
		if err := dev.Activities.Finish(rec); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// Comparison runs the benchmark on a stock device and an E-Android
// device and reports both score sets.
type Comparison struct {
	Android  Scores
	EAndroid Scores
}

// Compare builds two fresh devices (one stock, one with the complete
// monitor), runs the same workload on each, and returns both results. A
// throwaway warm-up run precedes the measurements so allocator and cache
// warm-up does not penalize whichever configuration happens to run
// first.
func Compare(cfg Config) (Comparison, error) {
	warm, err := newDevice(false)
	if err != nil {
		return Comparison{}, err
	}
	if _, err := Run(warm, cfg); err != nil {
		return Comparison{}, err
	}

	stock, err := newDevice(false)
	if err != nil {
		return Comparison{}, err
	}
	ea, err := newDevice(true)
	if err != nil {
		return Comparison{}, err
	}
	var cmp Comparison
	if cmp.Android, err = Run(stock, cfg); err != nil {
		return Comparison{}, err
	}
	if cmp.EAndroid, err = Run(ea, cfg); err != nil {
		return Comparison{}, err
	}
	return cmp, nil
}

// newDevice builds one of Compare's devices. The scores price the
// E-Android framework, not the invariant checker, so it is disabled.
func newDevice(eandroid bool) (*device.Device, error) {
	return device.New(device.Config{EAndroid: eandroid, Checks: &check.Options{Disabled: true}})
}

// Render formats the comparison as the Figure 11 bar groups.
func (c Comparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AnTuTu benchmark (Figure 11)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s\n", "score", "Android", "E-Android")
	row := func(name string, a, e int) {
		fmt.Fprintf(&b, "%-10s %10d %10d\n", name, a, e)
	}
	row("total", c.Android.Total, c.EAndroid.Total)
	row("cpu-int", c.Android.CPUInt, c.EAndroid.CPUInt)
	row("cpu-float", c.Android.CPUFloat, c.EAndroid.CPUFloat)
	row("memory", c.Android.Memory, c.EAndroid.Memory)
	row("ux", c.Android.UX, c.EAndroid.UX)
	return b.String()
}
