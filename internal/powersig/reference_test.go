package powersig_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/powersig"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// refSampler is the detector's naive reference: a second ticker that
// appends every non-system census app's InstantAppPowerMW to a per-UID
// slice each tick, summarized with a plain two-pass mean/std/peak.
// Started right after the detector, it ticks adjacent to it in event
// order, so both read the same meter state.
type refSampler struct {
	engine *sim.Engine
	meter  *hw.Meter
	pm     *app.PackageManager
	ticker *sim.Ticker
	live   map[app.UID][]float64
	sigs   map[app.UID]powersig.Signature
	seen   map[app.UID]int // samples per UID since the start, across Train
}

func newRefSampler(engine *sim.Engine, meter *hw.Meter, pm *app.PackageManager) *refSampler {
	return &refSampler{
		engine: engine, meter: meter, pm: pm,
		live: map[app.UID][]float64{},
		sigs: map[app.UID]powersig.Signature{},
		seen: map[app.UID]int{},
	}
}

func (r *refSampler) start() {
	r.ticker = r.engine.Every(powersig.DefaultSamplePeriod, "ref.sample", func() {
		for _, a := range r.pm.Apps() {
			if !a.System {
				r.live[a.UID] = append(r.live[a.UID], r.meter.InstantAppPowerMW(a.UID))
				r.seen[a.UID]++
			}
		}
	})
}

func (r *refSampler) stop() { r.ticker.Stop() }

func summarize(uid app.UID, trace []float64) powersig.Signature {
	var sum, peak float64
	for _, v := range trace {
		sum += v
		if v > peak {
			peak = v
		}
	}
	mean := sum / float64(len(trace))
	var varsum float64
	for _, v := range trace {
		varsum += (v - mean) * (v - mean)
	}
	return powersig.Signature{
		UID:     uid,
		MeanMW:  mean,
		StdMW:   math.Sqrt(varsum / float64(len(trace))),
		PeakMW:  peak,
		Samples: len(trace),
	}
}

func (r *refSampler) train() {
	for uid, trace := range r.live {
		r.sigs[uid] = summarize(uid, trace)
	}
	clear(r.live)
}

func (r *refSampler) signatures() []powersig.Signature {
	var out []powersig.Signature
	for _, uid := range sortedKeys(r.sigs) {
		out = append(out, r.sigs[uid])
	}
	return out
}

func sortedKeys[V any](m map[app.UID]V) []app.UID {
	var out []app.UID
	for uid := range m {
		out = append(out, uid)
	}
	slices.Sort(out)
	return out
}

// classify applies the detector's rule: a live mean beyond the larger
// of mean+3σ+25 mW and twice the trained peak is anomalous.
func (r *refSampler) classify() []powersig.Verdict {
	var out []powersig.Verdict
	for _, uid := range sortedKeys(r.live) {
		live := summarize(uid, r.live[uid])
		sig := r.sigs[uid]
		threshold := sig.MeanMW + 3*sig.StdMW + 25
		if alt := 2 * sig.PeakMW; alt > threshold {
			threshold = alt
		}
		out = append(out, powersig.Verdict{
			UID:           uid,
			Anomalous:     live.MeanMW > threshold,
			LiveMeanMW:    live.MeanMW,
			TrainedMeanMW: sig.MeanMW,
		})
	}
	return out
}

func sigBits(sigs []powersig.Signature) []string {
	var out []string
	for _, s := range sigs {
		out = append(out, fmt.Sprintf("uid=%d mean=%#x std=%#x peak=%#x n=%d", s.UID,
			math.Float64bits(s.MeanMW), math.Float64bits(s.StdMW), math.Float64bits(s.PeakMW), s.Samples))
	}
	return out
}

func verdictBits(vs []powersig.Verdict) []string {
	var out []string
	for _, v := range vs {
		out = append(out, fmt.Sprintf("uid=%d anomalous=%v live=%#x trained=%#x", v.UID, v.Anomalous,
			math.Float64bits(v.LiveMeanMW), math.Float64bits(v.TrainedMeanMW)))
	}
	return out
}

// match asserts the detector's Signatures, Classify and TraceLen equal
// the reference's bit for bit.
func match(t *testing.T, when string, d *powersig.Detector, r *refSampler) {
	t.Helper()
	if got, want := sigBits(d.Signatures()), sigBits(r.signatures()); !slices.Equal(got, want) {
		t.Errorf("%s: signatures\n got %q\nwant %q", when, got, want)
	}
	if got, want := verdictBits(d.Classify()), verdictBits(r.classify()); !slices.Equal(got, want) {
		t.Errorf("%s: verdicts\n got %q\nwant %q", when, got, want)
	}
	for uid := range r.seen {
		if got, want := d.TraceLen(uid), len(r.live[uid]); got != want {
			t.Errorf("%s: TraceLen(%d) = %d, want %d", when, uid, got, want)
		}
	}
}

// start starts the detector and, right after it, the reference.
func start(d *powersig.Detector, r *refSampler) {
	d.Start()
	r.start()
}

func train(t *testing.T, d *powersig.Detector, r *refSampler) {
	t.Helper()
	if err := d.Train(); err != nil {
		t.Fatal(err)
	}
	r.train()
}

func secs(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }

// TestDetectorMatchesNaiveSampler drives every input a stored frame
// depends on between and at ticks, and checks the run-length trace
// summarizes exactly as a per-tick sampler does.
func TestDetectorMatchesNaiveSampler(t *testing.T) {
	eng := sim.NewEngine()
	bat, err := hw.NewBattery(hw.NexusBatteryJ)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hw.NewMeter(eng.Now, hw.Nexus4(), bat)
	if err != nil {
		t.Fatal(err)
	}
	pm := app.NewPackageManager()
	if _, err := pm.InstallSystem(&manifest.Manifest{Package: "android"}); err != nil {
		t.Fatal(err)
	}
	install := func(pkg string) app.UID { return pm.MustInstall(&manifest.Manifest{Package: pkg}).UID }
	a, b, c := install("com.example.a"), install("com.example.b"), install("com.example.c")
	e := install("com.example.e") // idle until after Train
	var d4 app.UID

	must := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	at := func(s float64, fn func()) { eng.Schedule(secs(s), "script", fn) }
	// afterTick runs fn at s, after the detector's tick at s: the tick
	// for s is armed at s-1, so an event scheduled later runs after it.
	afterTick := func(s float64, fn func()) { at(s-0.5, func() { at(s, fn) }) }

	// CPU steps; b's step moves a's power through the DVFS point.
	at(0.5, func() { m.SetCPUUtil(a, 0.3) })
	at(2.25, func() { m.SetCPUUtil(a, 0.7); m.SetCPUUtil(b, 0.2) })
	// A shared camera, released at a tick instant before the tick.
	at(3.5, func() { must(m.Hold(hw.Camera, b)); must(m.Hold(hw.Camera, c)) })
	at(5, func() { must(m.Release(hw.Camera, b)) })
	at(6.5, func() { must(m.Hold(hw.GPS, a)); must(m.Hold(hw.WiFi, c)) })
	// c's tail expires at 11.25, between ticks, with no setter until 13.5.
	at(8.25, func() { must(m.Release(hw.WiFi, c)) })
	// Two overlapping tails; a's expires exactly at the tick at 17.
	at(13.5, func() { must(m.Hold(hw.WiFi, a)); must(m.Hold(hw.WiFi, b)) })
	at(14, func() { must(m.Release(hw.WiFi, a)) })
	at(15.5, func() { must(m.Release(hw.WiFi, b)) })
	// A tail cut short by suspend; GPS and CPU draw nothing while
	// suspended.
	at(19, func() { must(m.Hold(hw.WiFi, c)) })
	at(19.5, func() { must(m.Release(hw.WiFi, c)) })
	at(20.5, func() { m.SetSuspended(true) })
	at(23.5, func() { m.SetSuspended(false) })
	// Install mid-window, then uninstall b with its CPU share still
	// attributed, so a's power keeps depending on it.
	at(25.5, func() { d4 = install("com.example.d") })
	at(26, func() { m.SetCPUUtil(d4, 0.5) })
	at(28.5, func() { must(pm.Uninstall("com.example.b")) })
	// Forced flushes: at a tick before it, between ticks, after it.
	at(29, m.Flush)
	at(29.7, m.Flush)
	afterTick(30, m.Flush)
	// Two changes at one instant, one on each side of the tick at 32,
	// and no setter until 36.5.
	at(32, func() { m.SetCPUUtil(a, 0.5) })
	afterTick(32, func() { m.SetCPUUtil(a, 0.9) })

	det, err := powersig.NewDetector(eng, m, pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newRefSampler(eng, m, pm)
	start(det, r)
	run := func(s float64) {
		t.Helper()
		if err := eng.RunUntil(secs(s)); err != nil {
			t.Fatal(err)
		}
	}

	run(35.75)
	match(t, "before Train", det, r)
	train(t, det, r)
	match(t, "after Train", det, r)

	at(36.5, func() { must(m.Hold(hw.Camera, e)); m.SetCPUUtil(e, 1) })
	// Stopped while a setter runs, then while none does.
	at(38.5, func() { det.Stop(); r.stop() })
	at(40, func() { m.SetCPUUtil(c, 0.4) })
	at(41.5, func() { start(det, r) })
	at(45, func() { det.Stop(); r.stop() })
	at(46, func() { start(det, r) })
	run(60.25)
	match(t, "end", det, r)
	if r.seen[b] == 0 || r.seen[d4] == 0 || len(det.Anomalous()) == 0 {
		t.Fatalf("script missed an input: samples of b %d, of d %d; flagged %v", r.seen[b], r.seen[d4], det.Anomalous())
	}
}

// TestDetectorMatchesNaiveSamplerOnDevice repeats the comparison on a
// full device through a benign window, a mid-run Train, the classic CPU
// and network bombs and attack #3.
func TestDetectorMatchesNaiveSamplerOnDevice(t *testing.T) {
	w, det := detectorWorld(t)
	if _, err := w.InstallClassicBomber(); err != nil {
		t.Fatal(err)
	}
	r := newRefSampler(w.Dev.Engine, w.Dev.Meter, w.Dev.Packages)
	start(det, r)
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Activities.Home(app.UIDSystem)
	if err := w.Dev.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	match(t, "benign window", det, r)
	train(t, det, r)
	for _, phase := range []struct {
		name string
		run  func() error
	}{
		{"classic CPU bomb", func() error { return w.ClassicCPUBomb(60 * time.Second) }},
		{"network bomb", func() error { return w.ClassicNetworkBomb(60 * time.Second) }},
		{"attack 3", func() error {
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.Attack3ServicePin(60 * time.Second)
		}},
	} {
		if err := phase.run(); err != nil {
			t.Fatal(err)
		}
		match(t, phase.name, det, r)
	}
	if len(det.Anomalous()) == 0 {
		t.Fatal("no app flagged: the comparison never saw a verdict change")
	}
}
