package obsv

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Watchdog defaults: the window and history length, which
// WatchdogOptions may override, and the thresholds, which are fixed.
// The spike thresholds are deliberately double-gated (a relative jump
// AND an absolute floor) so quiet apps waking up and noisy-but-steady
// apps both stay under the bar.
const (
	// DefaultWindow is the rolling detection window.
	DefaultWindow = 30 * time.Second
	// DefaultBaseline is how many closed windows of per-UID rate
	// history the baseline mean averages over.
	DefaultBaseline = 8
	// DefaultWarmup is how many closed windows of history a UID needs
	// before spike judgement starts — fresh UIDs never spike.
	DefaultWarmup = 3
	// DefaultSpikeFactor is the rate-over-baseline multiple that flags
	// a drain spike.
	DefaultSpikeFactor = 4
	// DefaultMinRateMW is the absolute drain-rate floor for spikes.
	DefaultMinRateMW = 75
	// DefaultDivergenceRatio flags collateral energy growing faster
	// than this multiple of the driver's own direct energy — the
	// paper's esDiagnose signal (victims drain, the driver stays
	// quiet).
	DefaultDivergenceRatio = 1.5
	// DefaultMinCollateralMW is the absolute collateral-rate floor for
	// divergence findings.
	DefaultMinCollateralMW = 15
	// DefaultMaxFindings bounds the stored findings slice.
	DefaultMaxFindings = 512
)

// WatchdogOptions tunes the detector's window and history; zero fields
// take the defaults above.
type WatchdogOptions struct {
	Window   time.Duration
	Baseline int
}

func (o *WatchdogOptions) fill() {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Baseline <= 0 {
		o.Baseline = DefaultBaseline
	}
}

// Finding signal names, defined once in telemetry, which records each
// finding as an anomaly event.
const (
	// SignalDrainSpike is a per-UID direct drain-rate spike.
	SignalDrainSpike = telemetry.SignalDrainSpike
	// SignalDeviceSpike is a whole-device drain-rate spike.
	SignalDeviceSpike = telemetry.SignalDeviceSpike
	// SignalDivergence is collateral-vs-direct energy divergence.
	SignalDivergence = telemetry.SignalDivergence
)

// Finding is one watchdog detection. It carries numbers and a label
// only: its one-line text (telemetry.AppendAnomalyText) is rendered
// where it is written out, as watchdog.json's "detail"
// (WriteFindingsJSON) and an anomaly event's To.
type Finding struct {
	// T is the virtual instant the window closed.
	T sim.Time
	// Signal is one of the Signal* constants.
	Signal string
	// UID is the flagged app (app.UIDNone for device-level findings).
	UID app.UID
	// Label is the app's human-readable label ("device" for
	// device-level findings).
	Label string
	// RateMW is the offending rate over the closed window; BaselineMW
	// is what it was judged against (history mean for spikes, the
	// driver's direct rate for divergence).
	RateMW     float64
	BaselineMW float64
}

// WriteFindingsJSON writes per-device findings as a job's
// watchdog.json: the bytes json.MarshalIndent(perDevice, "", "  ")
// wrote when a Finding carried its text as a "detail" field, with []
// for a device without findings. The detail is rendered here, straight
// into the output.
func WriteFindingsJSON(w io.Writer, perDevice [][]Finding) error {
	j := jsonFor(w)
	j.raw("[")
	for i, fs := range perDevice {
		if i > 0 {
			j.raw(",")
		}
		if len(fs) == 0 {
			j.raw("\n  []")
			continue
		}
		j.raw("\n  [")
		for k := range fs {
			f := &fs[k]
			if k > 0 {
				j.raw(",")
			}
			j.int("\n    {\n      \"t\": ", int64(f.T))
			j.str(",\n      \"signal\": ", f.Signal)
			j.int(",\n      \"uid\": ", int64(f.UID))
			j.str(",\n      \"label\": ", f.Label)
			j.float(",\n      \"rate_mw\": ", f.RateMW)
			j.float(",\n      \"baseline_mw\": ", f.BaselineMW)
			j.raw(",\n      \"detail\": \"")
			// Render the text in place; re-encode it only if encoding/json
			// would escape some of it (the label's characters).
			at := len(j.b)
			j.b = telemetry.AppendAnomalyText(j.b, f.Signal, f.Label, f.RateMW, f.BaselineMW)
			if text := j.b[at:]; !plain(text) {
				j.b = appendString(j.b[:at-1], string(text))
			} else {
				j.raw(`"`)
			}
			j.raw("\n    }")
		}
		j.raw("\n  ]")
	}
	if len(perDevice) > 0 {
		j.raw("\n")
	}
	j.raw("]")
	return j.flush(w)
}

// Watchdog is the streaming drain-anomaly detector: a meter sink (the
// same attach path as the flame collector and the device tracer) that
// folds each integrated interval into per-UID attribution and device
// drain, closes a rolling window on a virtual-time ticker, and flags
//
//   - per-UID (and whole-device) drain-rate spikes against a rolling
//     baseline, and
//   - collateral-vs-direct divergence via the E-Android monitor's
//     collateral maps (skipped when the monitor is off),
//
// recording each finding as a KindAnomaly telemetry event (when the
// device carries a recorder).
// Single-goroutine, like everything else observing the engine; all
// thresholds and window closes run on virtual time, so findings are
// deterministic.
//
// Findings are raised only for user-quiet windows — windows containing
// no user touch (power.Manager.LastUserActivity). A user interacting
// with the device explains its energy: the benign scenes delegate to
// the camera at a user tap, so their (legitimate) collateral always
// lands in an interactive window. Every one of the paper's attacks, by
// contrast, sustains its drain after the user stops touching the
// device — that user-absent persistence is exactly what makes them
// attacks, and it is what the watchdog flags. History and baselines
// keep accumulating through interactive windows; only the judgement is
// suppressed.
type Watchdog struct {
	dev  *device.Device
	opts WatchdogOptions

	ticker   *sim.Ticker
	started  bool
	finished bool

	winStart sim.Time
	drainJ   float64 // battery joules drained this window

	// Per-UID state lives in dense columns parallel to uids, the
	// ascending list of every UID seen so far: credited by the meter or
	// listed by the monitor as a collateral driver. A new UID shifts the
	// columns once; the window close walks them in order with no map,
	// no sort and no allocation.
	uids   []app.UID
	direct []float64 // joules attributed this window
	// hist holds closed-window rates, newest last, in a slice of
	// capacity Baseline. It is nil until the UID is first credited: a
	// driver seen only through its collateral map is never spike-judged.
	hist    [][]float64
	lastCol []float64 // cumulative collateral at last close
	devHist []float64

	// findings grow in a buffer taken from findingBufs on the first
	// finding (buf); Finish keeps an exact-size copy and hands the
	// buffer back.
	findings []Finding
	buf      *[]Finding
	dropped  int
	// cDropped counts dropped findings on the device's recorder, as
	// obsv.findings_dropped; resolved at Start, nil without a recorder.
	cDropped *telemetry.Counter

	stats WindowStats
}

// WindowStats counts the watchdog's closed windows by disposition. The
// corpus replay harness uses these as trial counts for window-level
// false-positive rates: every judged (user-quiet) window is one Bernoulli
// trial, flagged or clean.
type WindowStats struct {
	// Total is every closed window, judged or not.
	Total int `json:"total"`
	// Interactive windows contained user activity and were not judged.
	Interactive int `json:"interactive"`
	// Judged windows were user-quiet and ran the full detector.
	Judged int `json:"judged"`
	// Flagged judged windows produced at least one finding.
	Flagged int `json:"flagged"`
}

// Add folds o's counters into s (summing several watchdogs' windows).
func (s *WindowStats) Add(o WindowStats) {
	s.Total += o.Total
	s.Interactive += o.Interactive
	s.Judged += o.Judged
	s.Flagged += o.Flagged
}

// NewWatchdog builds a watchdog over dev; Start attaches it. Any device
// works — no telemetry recorder is needed, though one, if present,
// receives each finding as a KindAnomaly event.
func NewWatchdog(dev *device.Device, opts WatchdogOptions) (*Watchdog, error) {
	if dev == nil {
		return nil, fmt.Errorf("obsv: nil device")
	}
	opts.fill()
	return &Watchdog{dev: dev, opts: opts, devHist: make([]float64, 0, opts.Baseline)}, nil
}

// Start adds the watchdog to the device's meter sinks and starts the
// window ticker, and registers the obsv.findings_dropped counter on the
// device's recorder, if it has one. Idempotent.
func (w *Watchdog) Start() {
	if w.started {
		return
	}
	w.started = true
	w.cDropped = w.dev.Telemetry.Metrics().Counter("obsv.findings_dropped")
	w.winStart = w.dev.Engine.Now()
	w.dev.Meter.AddSink(w)
	w.ticker = w.dev.Engine.Every(sim.Duration(w.opts.Window), "obsv.watchdog", w.tick)
}

// Finish stops the detector, closes the partial final window, and
// returns the findings: the watchdog's own slice, exactly as long as
// what it holds, which nothing changes after Finish, so callers must
// not write to it. The meter keeps the sink, which ignores every later
// interval. Idempotent.
func (w *Watchdog) Finish() []Finding {
	if w.started && !w.finished {
		w.ticker.Stop()
		w.dev.Meter.Flush()
		w.closeWindow(w.dev.Engine.Now())
		w.finished = true
		if w.buf != nil {
			kept := make([]Finding, len(w.findings))
			copy(kept, w.findings)
			clear(w.findings)
			*w.buf = w.findings[:0]
			findingBufs.Put(w.buf)
			w.findings, w.buf = kept, nil
		}
	}
	return w.findings
}

// findingBufs holds the findings buffers finished watchdogs handed
// back. A flagged job device then allocates its findings once, at their
// size, in Finish, instead of at every doubling up to
// DefaultMaxFindings.
var findingBufs sync.Pool

// Detected reports whether findings include a collateral-divergence
// finding naming driver: the one rule by which a run counts as a
// detection.
func Detected(findings []Finding, driver app.UID) bool {
	for _, f := range findings {
		if f.Signal == SignalDivergence && f.UID == driver {
			return true
		}
	}
	return false
}

// Findings returns a copy of the recorded findings.
func (w *Watchdog) Findings() []Finding {
	if len(w.findings) == 0 {
		return nil
	}
	out := make([]Finding, len(w.findings))
	copy(out, w.findings)
	return out
}

// Dropped reports findings discarded beyond DefaultMaxFindings.
func (w *Watchdog) Dropped() int { return w.dropped }

// Stats reports the closed-window counters accumulated so far.
func (w *Watchdog) Stats() WindowStats { return w.stats }

// Accrue implements hw.Sink: it folds one integrated interval into the
// current window exactly as the baseline accountant attributes it —
// each app row to its UID, screen energy to UIDScreen (or, under
// PowerTutor, to the foreground app), platform energy to UIDSystem —
// and adds the interval's whole drain to the device total. Only the
// interval's totals are read; nothing borrowed is retained.
func (w *Watchdog) Accrue(iv hw.Interval) {
	if w.finished {
		return
	}
	for _, uid := range iv.UIDs() {
		w.credit(uid, iv.App(uid).Total())
	}
	if iv.ScreenJ > 0 {
		w.credit(w.dev.Android.ScreenOwner(), iv.ScreenJ)
	}
	if iv.SystemJ > 0 {
		w.credit(app.UIDSystem, iv.SystemJ)
	}
	// Summed in the meter's own order (apps, then screen plus system),
	// so the drain equals the battery's debit bit for bit.
	drain := iv.AppsTotalJ()
	drain += iv.ScreenJ + iv.SystemJ
	w.drainJ += drain
}

// credit adds j joules to uid's window total.
func (w *Watchdog) credit(uid app.UID, j float64) {
	i := w.column(uid)
	w.direct[i] += j
	if w.hist[i] == nil {
		w.hist[i] = make([]float64, 0, w.opts.Baseline)
	}
}

// column returns uid's index in the columns, inserting it on first
// sight.
func (w *Watchdog) column(uid app.UID) int {
	i, ok := slices.BinarySearch(w.uids, uid)
	if !ok {
		w.uids = slices.Insert(w.uids, i, uid)
		w.direct = slices.Insert(w.direct, i, 0)
		w.hist = slices.Insert(w.hist, i, nil)
		w.lastCol = slices.Insert(w.lastCol, i, 0)
	}
	return i
}

// tick fires once per window on the virtual clock.
func (w *Watchdog) tick() {
	// Settle accounting up to the window edge; the flushed interval
	// reaches Accrue synchronously, so it lands in the closing window.
	w.dev.Meter.Flush()
	w.closeWindow(w.dev.Engine.Now())
}

// closeWindow judges the window ending at now and resets accumulators.
func (w *Watchdog) closeWindow(now sim.Time) {
	span := now.Sub(w.winStart)
	if span <= 0 {
		return
	}
	secs := time.Duration(span).Seconds()

	// A window the user touched is never judged: interaction explains
	// drain. Attacks persist into the quiet windows that follow.
	quiet := w.dev.Power.LastUserActivity().Before(w.winStart)

	w.stats.Total++
	if quiet {
		w.stats.Judged++
	} else {
		w.stats.Interactive++
	}
	preFindings := len(w.findings) + w.dropped

	// Per-UID spikes, judged and appended to history in ascending UID
	// order over every UID ever credited, so baselines decay
	// deterministically when an app goes quiet.
	for i, uid := range w.uids {
		h := w.hist[i]
		if h == nil {
			continue
		}
		rate := w.direct[i] / secs * 1000 // mW
		if quiet && len(h) >= DefaultWarmup {
			base := mean(h)
			if rate >= DefaultMinRateMW && rate > DefaultSpikeFactor*base {
				w.record(now, SignalDrainSpike, uid, w.dev.Packages.Label(uid), rate, base)
			}
		}
		w.hist[i] = pushRate(h, rate)
	}

	// Whole-device spike against its own rolling baseline.
	devRate := w.drainJ / secs * 1000
	if quiet && len(w.devHist) >= DefaultWarmup {
		base := mean(w.devHist)
		if devRate >= DefaultMinRateMW && devRate > DefaultSpikeFactor*base {
			w.record(now, SignalDeviceSpike, app.UIDNone, "device", devRate, base)
		}
	}
	w.devHist = pushRate(w.devHist, devRate)

	// Collateral divergence: energy landing in an app's collateral map
	// much faster than in its own ledger. This is the esDiagnose
	// signal — every one of the paper's attacks sustains it through
	// user-quiet windows; the benign scenes' camera delegation is
	// collateral too, but always inside an interactive window.
	//
	// The delta is the difference of two CollateralJ totals, each summed
	// in CollateralMap order. That arithmetic fixes the findings' float
	// bits: a per-window delta kept by the monitor would round
	// differently.
	if mon := w.dev.EAndroid; mon != nil {
		for _, uid := range mon.Drivers() {
			i := w.column(uid)
			col := mon.CollateralJ(uid)
			delta := col - w.lastCol[i]
			w.lastCol[i] = col
			colRate := delta / secs * 1000
			directJ := w.direct[i]
			if quiet && colRate >= DefaultMinCollateralMW && delta > DefaultDivergenceRatio*directJ {
				w.record(now, SignalDivergence, uid, w.dev.Packages.Label(uid), colRate, directJ/secs*1000)
			}
		}
	}

	if quiet && len(w.findings)+w.dropped > preFindings {
		w.stats.Flagged++
	}

	// Traced devices record each closed window as an engine-phase span
	// carrying the window's finding count — virtual-time endpoints, so
	// the span is as deterministic as the judgement itself.
	w.dev.Trace.Phase(trace.PhaseWatchdogWindow, w.winStart, now,
		float64(len(w.findings)+w.dropped-preFindings))

	clear(w.direct)
	w.drainJ = 0
	w.winStart = now
}

// record stores one finding, or only counts it past
// DefaultMaxFindings (on the recorder too), and hands its numbers to
// the device's recorder. Neither builds a string.
func (w *Watchdog) record(t sim.Time, signal string, uid app.UID, label string, rateMW, baselineMW float64) {
	if len(w.findings) < DefaultMaxFindings {
		if w.findings == nil {
			w.buf, _ = findingBufs.Get().(*[]Finding)
			if w.buf == nil {
				w.buf = new([]Finding)
			}
			w.findings = *w.buf
		}
		w.findings = append(w.findings, Finding{
			T: t, Signal: signal, UID: uid, Label: label, RateMW: rateMW, BaselineMW: baselineMW,
		})
	} else {
		w.dropped++
		w.cDropped.Inc()
	}
	w.dev.Telemetry.RecordAnomaly(t, uid, signal, label, rateMW, baselineMW)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// pushRate appends r to a history of fixed capacity, dropping the
// oldest rate once it is full, so it never allocates.
func pushRate(h []float64, r float64) []float64 {
	if len(h) == cap(h) {
		copy(h, h[1:])
		h = h[:len(h)-1]
	}
	return append(h, r)
}
