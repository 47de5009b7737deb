package obsv

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestWatchdogRejectsNilDevice: a watchdog needs a device to attach
// to; anything else is a construction error, not a silent no-op.
func TestWatchdogRejectsNilDevice(t *testing.T) {
	if _, err := NewWatchdog(nil, WatchdogOptions{}); err == nil {
		t.Fatal("watchdog accepted a nil device")
	}
}

// burnerDevice builds a device for driving the watchdog with real meter
// intervals: one installed app holding a partial wakelock, so the
// platform stays awake and the app's CPU share is charged, and a 1 s
// screen timeout, so the screen-on boot window does not inflate the
// device's drain baseline. The app burns util of the CPU from boot and
// full CPU from burstAt (never, when zero).
func burnerDevice(t *testing.T, rec *telemetry.Recorder, util float64, burstAt time.Duration) (*device.Device, app.UID) {
	t.Helper()
	dev, err := device.New(device.Config{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Power.SetScreenTimeout(time.Second); err != nil {
		t.Fatal(err)
	}
	a, err := dev.Packages.Install(manifest.NewBuilder("com.example.burner", "Burner").
		Permission(manifest.PermWakeLock).Activity("Main", true).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Power.Acquire(a.UID, power.Partial, "burn"); err != nil {
		t.Fatal(err)
	}
	dev.Meter.SetCPUUtil(a.UID, util)
	if burstAt > 0 {
		dev.Engine.Schedule(sim.Time(burstAt), "burst", func() { dev.Meter.SetCPUUtil(a.UID, 1) })
	}
	return dev, a.UID
}

// TestWatchdogSpikeDetection drives the detector with real intervals: a
// quiet baseline long enough to pass warmup, then a CPU burst. Both the
// per-UID and the device-level spike signals must fire — and only
// after the burst.
func TestWatchdogSpikeDetection(t *testing.T) {
	dev, uid := burnerDevice(t, telemetry.New(telemetry.Options{}), 0.01, 50*time.Second)
	wd, err := NewWatchdog(dev, WatchdogOptions{Window: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()
	if err := dev.Run(70 * time.Second); err != nil {
		t.Fatal(err)
	}
	findings := wd.Finish()
	var uidSpike, devSpike *Finding
	for i := range findings {
		f := &findings[i]
		if time.Duration(f.T) <= 50*time.Second {
			t.Fatalf("finding before the burst: %+v", f)
		}
		// Keep the FIRST spike of each kind: later windows fold the
		// burst into the rolling baseline, inflating BaselineMW.
		switch {
		case f.Signal == SignalDrainSpike && f.UID == uid && uidSpike == nil:
			uidSpike = f
		case f.Signal == SignalDeviceSpike && devSpike == nil:
			devSpike = f
		}
	}
	if uidSpike == nil {
		t.Fatalf("no %s for uid %d in %+v", SignalDrainSpike, uid, findings)
	}
	if devSpike == nil {
		t.Fatalf("no %s in %+v", SignalDeviceSpike, findings)
	}
	if uidSpike.RateMW < 400 || uidSpike.BaselineMW > 10 {
		t.Fatalf("implausible spike rates: %+v", uidSpike)
	}
	// The findings surfaced as telemetry events too, in order, each
	// reading back with its finding's text.
	var anomalies []telemetry.Event
	for _, ev := range dev.Telemetry.Events() {
		if ev.Kind == telemetry.KindAnomaly {
			anomalies = append(anomalies, ev)
		}
	}
	if len(anomalies) != len(findings) {
		t.Fatalf("%d KindAnomaly events, want %d", len(anomalies), len(findings))
	}
	for i, ev := range anomalies {
		f := findings[i]
		if ev.Name != f.Signal || ev.UID != f.UID || ev.V0 != f.RateMW || ev.V1 != f.BaselineMW || ev.From != "" {
			t.Fatalf("event %d = %+v, finding %+v", i, ev, f)
		}
		if want := refDetail(f); ev.To != want {
			t.Fatalf("event %d text %q, want its finding's %q", i, ev.To, want)
		}
	}
}

// TestWatchdogQuietBaselineStaysClean: the same load without a burst
// never alarms.
func TestWatchdogQuietBaselineStaysClean(t *testing.T) {
	dev, _ := burnerDevice(t, nil, 0.01, 0)
	wd, err := NewWatchdog(dev, WatchdogOptions{Window: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()
	if err := dev.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if f := wd.Finish(); len(f) != 0 {
		t.Fatalf("quiet baseline produced findings: %+v", f)
	}
}

// TestWatchdogUserWindowsSuppressed: a burst inside a window the user
// touched is not judged; the same burst with the user absent is.
func TestWatchdogUserWindowsSuppressed(t *testing.T) {
	run := func(touch bool) []Finding {
		dev, _ := burnerDevice(t, nil, 0.01, 50*time.Second)
		wd, err := NewWatchdog(dev, WatchdogOptions{Window: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		wd.Start()
		if touch {
			// The user keeps tapping: every window is interactive.
			dev.Engine.Every(sim.Duration(time.Second), "touch", dev.Power.UserActivity)
		}
		if err := dev.Run(70 * time.Second); err != nil {
			t.Fatal(err)
		}
		return wd.Finish()
	}
	if f := run(true); len(f) != 0 {
		t.Fatalf("interactive windows were judged: %+v", f)
	}
	if f := run(false); len(f) == 0 {
		t.Fatal("user-absent burst not flagged")
	}
}

// rateHistory maps every credited UID to its closed-window rates, as the
// columns hold them.
func rateHistory(w *Watchdog) map[app.UID][]float64 {
	out := map[app.UID][]float64{}
	for i, uid := range w.uids {
		if w.hist[i] != nil {
			out[uid] = w.hist[i]
		}
	}
	return out
}

// TestWatchdogFinishIdempotent: Finish twice returns the same findings,
// and the sink ignores every interval after the first Finish.
func TestWatchdogFinishIdempotent(t *testing.T) {
	dev, _ := burnerDevice(t, nil, 0.01, 0)
	wd, err := NewWatchdog(dev, WatchdogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()
	if err := dev.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	a := wd.Finish()
	st := wd.Stats()
	uids := slices.Clone(wd.uids)
	if err := dev.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	dev.Meter.Flush()
	b := wd.Finish()
	if len(a) != len(b) || wd.Stats() != st {
		t.Fatalf("Finish not idempotent: %d vs %d findings, stats %+v vs %+v", len(a), len(b), st, wd.Stats())
	}
	folded := slices.ContainsFunc(wd.direct, func(j float64) bool { return j != 0 })
	if folded || !slices.Equal(wd.uids, uids) || wd.drainJ != 0 {
		t.Fatalf("finished watchdog folded later intervals: uids %v (was %v), direct %v, drain %v J",
			wd.uids, uids, wd.direct, wd.drainJ)
	}
}

// TestWatchdogsOnSharedRecorder: serial worlds sharing one recorder
// (the CLIs' world funnel) each get a watchdog from the construction
// hook, and each judges exactly what it would alone — its closed-window
// rate history, window counts and findings match a solo run of the same
// world. World 0 ends mid-window, so its partial final window closes
// only at Finish, after world 1 has run.
func TestWatchdogsOnSharedRecorder(t *testing.T) {
	scripts := []func(*scenario.World) error{
		func(w *scenario.World) error { return w.Attack3ServicePin(75 * time.Second) },
		func(w *scenario.World) error { return w.Attack6WakelockScreen(2 * time.Minute) },
	}
	// run builds the selected worlds in order over one recorder, then
	// finishes their watchdogs in build order, as eandroid-sim does.
	run := func(which ...int) []*Watchdog {
		var wds []*Watchdog
		opts := scenario.WorldOptions{
			Telemetry: telemetry.New(telemetry.Options{}),
			Hook: func(dev *device.Device) {
				wd, err := NewWatchdog(dev, WatchdogOptions{})
				if err != nil {
					t.Fatal(err)
				}
				wd.Start()
				wds = append(wds, wd)
			},
		}
		for _, i := range which {
			w, err := scenario.NewWorldWith(device.Config{EAndroid: true}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := scripts[i](w); err != nil {
				t.Fatal(err)
			}
		}
		for _, wd := range wds {
			wd.Finish()
		}
		return wds
	}
	shared := run(0, 1)
	for i := range scripts {
		solo := run(i)[0]
		got := shared[i]
		if !reflect.DeepEqual(got.devHist, solo.devHist) {
			t.Errorf("world %d: device rate history %v, solo %v", i, got.devHist, solo.devHist)
		}
		if gh, sh := rateHistory(got), rateHistory(solo); !reflect.DeepEqual(gh, sh) {
			t.Errorf("world %d: per-UID rate history %v, solo %v", i, gh, sh)
		}
		if got.Stats() != solo.Stats() || !reflect.DeepEqual(got.Findings(), solo.Findings()) {
			t.Errorf("world %d: stats %+v and %d findings, solo %+v and %d",
				i, got.Stats(), len(got.Findings()), solo.Stats(), len(solo.Findings()))
		}
	}
}

// TestWatchdogMatchesAccountantAttribution is the sink's differential
// check against the baseline accountant: every closed window's per-UID
// joules, as the watchdog folds them from meter intervals, equal the
// sum of that window's KindAttribution events in the device's
// recorder, and its device drain equals the window's KindBattery
// events — under both policies, so the sink reproduces the accountant's
// screen routing (UIDScreen under BatteryStats, the foreground app
// under PowerTutor) as well as its per-app rows.
func TestWatchdogMatchesAccountantAttribution(t *testing.T) {
	const window = 10 * time.Second
	for _, policy := range []accounting.Policy{accounting.BatteryStats, accounting.PowerTutor} {
		t.Run(policy.String(), func(t *testing.T) {
			rec := telemetry.New(telemetry.Options{EventCapacity: 1 << 15})
			w, err := scenario.NewWorldWith(device.Config{EAndroid: true, Policy: policy, Telemetry: rec},
				scenario.WorldOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Keep every closed window in the rate history.
			wd, err := NewWatchdog(w.Dev, WatchdogOptions{Window: window, Baseline: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			start := w.Dev.Engine.Now()
			wd.Start()
			if err := w.Scene1MessageFilm(); err != nil {
				t.Fatal(err)
			}
			if err := w.Dev.Run(45 * time.Second); err != nil { // screen times out, device idles
				t.Fatal(err)
			}
			wd.Finish()
			end := w.Dev.Engine.Now()
			if rec.Dropped() != 0 {
				t.Fatalf("recorder ring dropped %d events; the differential needs them all", rec.Dropped())
			}

			// Window k covers (bounds[k-1], bounds[k]]: ticks every
			// window from start, then Finish's partial window to end.
			n := len(wd.devHist)
			bounds := []sim.Time{start}
			for k := 1; k < n; k++ {
				bounds = append(bounds, start+sim.Time(k)*sim.Time(window))
			}
			bounds = append(bounds, end)
			direct := make([]map[app.UID]float64, n)
			drain := make([]float64, n)
			for k := range direct {
				direct[k] = map[app.UID]float64{}
			}
			for _, ev := range rec.Events() {
				if ev.Kind != telemetry.KindAttribution && ev.Kind != telemetry.KindBattery {
					continue
				}
				k := sort.Search(n, func(k int) bool { return ev.T <= bounds[k+1] })
				if k == n || ev.T <= bounds[0] {
					t.Fatalf("%s event at %v outside the watched span (%v, %v]", ev.Kind, ev.T, start, end)
				}
				if ev.Kind == telemetry.KindBattery {
					drain[k] += ev.V0
				} else {
					direct[k][ev.UID] += ev.V0
				}
			}

			// Replay the watchdog's history bookkeeping over the events.
			wantHist := map[app.UID][]float64{}
			var wantDev []float64
			for k := 0; k < n; k++ {
				secs := time.Duration(bounds[k+1] - bounds[k]).Seconds()
				for uid := range direct[k] {
					if _, ok := wantHist[uid]; !ok {
						wantHist[uid] = nil
					}
				}
				for uid := range wantHist {
					wantHist[uid] = append(wantHist[uid], direct[k][uid]/secs*1000)
				}
				wantDev = append(wantDev, drain[k]/secs*1000)
			}
			hist := rateHistory(wd)
			if !reflect.DeepEqual(hist, wantHist) {
				t.Fatalf("per-UID window rates:\nwatchdog   %v\naccountant %v", hist, wantHist)
			}
			if !reflect.DeepEqual(wd.devHist, wantDev) {
				t.Fatalf("device window rates:\nwatchdog %v\nbattery  %v", wd.devHist, wantDev)
			}
			// The scene must exercise the policy's screen routing: only
			// BatteryStats keeps a Screen row.
			if _, ok := hist[app.UIDScreen]; ok != (policy == accounting.BatteryStats) {
				t.Fatalf("%s: UIDScreen in the watchdog's history = %v", policy, ok)
			}
		})
	}
}

// TestWatchdogWindowCloseAllocatesNothing pins a steady-state window
// close at zero allocations on a device with an active collateral
// attack: the columns, rate histories and the monitor's driver list and
// entry buffer are reused. Each window credits every seen UID a little
// energy and closes user-quiet, so every judgement runs and none fires.
func TestWatchdogWindowCloseAllocatesNothing(t *testing.T) {
	w, err := scenario.NewWorld(device.Config{EAndroid: true})
	if err != nil {
		t.Fatal(err)
	}
	wd, err := NewWatchdog(w.Dev, WatchdogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()
	if err := w.Attack3ServicePin(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	wd.ticker.Stop()
	if !slices.ContainsFunc(w.Dev.EAndroid.Attacks(), func(a *core.Attack) bool { return a.Active }) {
		t.Fatal("no active collateral attack")
	}
	if len(w.Dev.EAndroid.Drivers()) == 0 {
		t.Fatal("monitor lists no collateral driver")
	}
	iv := hw.NewInterval(0, 0)
	for _, uid := range wd.uids {
		if uid >= app.FirstAppUID {
			iv.Row(uid).Add(hw.CPU, 1e-3)
		}
	}
	iv.SystemJ = 1e-3
	now := w.Dev.Engine.Now()
	findings, judged := len(wd.Findings()), wd.Stats().Judged
	allocs := testing.AllocsPerRun(100, func() {
		now += sim.Time(DefaultWindow)
		wd.Accrue(iv)
		wd.closeWindow(now)
	})
	if allocs != 0 {
		t.Fatalf("window close allocated %.1f times per window, want 0", allocs)
	}
	if got := len(wd.Findings()); got != findings {
		t.Fatalf("steady-state windows recorded %d findings", got-findings)
	}
	if got := wd.Stats().Judged - judged; got != 101 {
		t.Fatalf("%d judged windows, want 101", got)
	}
}

// A run counts as detected only through a collateral-divergence finding
// that names the driver: spikes, and divergence naming another app, do
// not count.
func TestDetectedNeedsDivergenceNamingDriver(t *testing.T) {
	const driver app.UID = 10050
	findings := []Finding{
		{Signal: SignalDrainSpike, UID: driver},
		{Signal: SignalDivergence, UID: driver + 1},
	}
	if Detected(nil, driver) || Detected(findings, driver) {
		t.Fatal("detected without a divergence finding naming the driver")
	}
	findings = append(findings, Finding{Signal: SignalDivergence, UID: driver})
	if !Detected(findings, driver) {
		t.Fatal("divergence finding naming the driver not detected")
	}
}

// TestWatchdogDroppedFindingsAllocateNothing pins what a finding past
// DefaultMaxFindings costs on a job device, whose recorder keeps
// metrics only: nothing. Each window is made to spike against a reset
// low baseline, so it raises findings; once the watchdog keeps
// DefaultMaxFindings, they are only counted, by the watchdog and by the
// recorder's obsv.findings_dropped counter, and the recorder only
// counts the anomalies. Rendering each finding's text as it was raised
// cost one fmt.Sprintf per finding.
func TestWatchdogDroppedFindingsAllocateNothing(t *testing.T) {
	rec := telemetry.New(telemetry.Options{EventCapacity: -1})
	dev, uid := burnerDevice(t, rec, 0.01, 0)
	wd, err := NewWatchdog(dev, WatchdogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()
	if err := dev.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	wd.ticker.Stop()
	iv := hw.NewInterval(0, 0)
	iv.Row(uid).Add(hw.CPU, 30)
	iv.SystemJ = 30
	now := dev.Engine.Now()
	spike := func() {
		for i := range wd.hist {
			if wd.hist[i] != nil {
				wd.hist[i] = append(wd.hist[i][:0], 1, 1, 1)
			}
		}
		wd.devHist = append(wd.devHist[:0], 1, 1, 1)
		now += sim.Time(DefaultWindow)
		wd.Accrue(iv)
		wd.closeWindow(now)
	}
	for len(wd.findings) < DefaultMaxFindings {
		spike()
	}
	dropped := wd.Dropped()
	if allocs := testing.AllocsPerRun(100, spike); allocs != 0 {
		t.Fatalf("a window raising only dropped findings allocated %.1f times, want 0", allocs)
	}
	if got := wd.Dropped() - dropped; got < 101 {
		t.Fatalf("%d findings dropped over 101 windows, want at least one a window", got)
	}
	kept, raised := len(wd.findings), rec.Metrics().Counter("obsv.anomalies").Value()
	if kept != DefaultMaxFindings || raised != float64(kept+wd.Dropped()) {
		t.Fatalf("%d findings kept and %.0f anomalies counted, want %d kept and %d counted",
			kept, raised, DefaultMaxFindings, kept+wd.Dropped())
	}
	if got := rec.Metrics().Counter("obsv.findings_dropped").Value(); got != float64(wd.Dropped()) {
		t.Fatalf("recorder counts %.0f dropped findings, watchdog %d", got, wd.Dropped())
	}
}

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// TestWatchdogFindingsKeptAtTheirSize: Finish returns the findings in
// one exact-size slice, and a second watchdog grows its findings in the
// buffer the first handed back, so they allocate nothing but Finish's
// copy. Findings still returns a copy of its own. One P keeps the pool
// from handing the buffer to another P's cache; under -race, sync.Pool
// drops items at random, so the reuse half is skipped there.
func TestWatchdogFindingsKeptAtTheirSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dev, uid := burnerDevice(t, nil, 0.01, 0)
	raise := func(w *Watchdog, n int) {
		for i := 0; i < n; i++ {
			w.record(sim.Time(i), SignalDrainSpike, uid, "Burner", 100, 1)
		}
	}
	start := func() *Watchdog {
		w, err := NewWatchdog(dev, WatchdogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.Start()
		return w
	}
	first := start()
	raise(first, DefaultMaxFindings+3)
	kept := first.Finish()
	if len(kept) != DefaultMaxFindings || cap(kept) != len(kept) || first.Dropped() != 3 {
		t.Fatalf("Finish kept len %d cap %d, dropped %d; want %d, %d, 3",
			len(kept), cap(kept), first.Dropped(), DefaultMaxFindings, DefaultMaxFindings)
	}
	want := slices.Clone(kept)
	second := start()
	allocs := testing.AllocsPerRun(1, func() { raise(second, 100) })
	if allocs != 0 && !raceEnabled {
		t.Fatalf("a watchdog on a warm buffer allocated %.0f times for 100 findings, want 0", allocs)
	}
	got := second.Finish()
	if len(got) != 200 || cap(got) != 200 {
		t.Fatalf("Finish returned len %d cap %d, want 200 and 200", len(got), cap(got))
	}
	if cp := second.Findings(); len(cp) != len(got) || &cp[0] == &got[0] {
		t.Fatal("Findings returned the kept slice, not a copy")
	}
	if !slices.Equal(first.Finish(), want) {
		t.Fatal("a later watchdog changed findings an earlier Finish returned")
	}
}
