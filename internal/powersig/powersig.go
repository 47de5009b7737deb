// Package powersig implements the power-signature malware detector of
// Kim et al. ("Detecting Energy-Greedy Anomalies and Mobile Malware
// Variants", MobiSys 2008) that the paper's related-work analysis argues
// against: it samples each app's *own* power draw, builds a per-app
// signature (quantized power-level histogram over a training window) and
// flags apps whose live trace deviates from their trained profile.
//
// Classic energy malware — Martin et al.'s bombers that burn CPU, the
// display or the radio in their own process — light up their own traces
// and are caught. Collateral energy malware drains the battery through
// *other* apps' processes, so its own trace stays flat and the detector
// stays silent. The paper's claim ("power signature cannot tackle
// collateral energy malware that drains energy via an indirect
// approach") is reproduced by the experiments in this package's tests.
package powersig

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/sim"
)

// DefaultSamplePeriod is how often traces are sampled.
const DefaultSamplePeriod = time.Second

// Signature is one app's trained power profile.
type Signature struct {
	UID app.UID
	// MeanMW and StdMW summarize the training window.
	MeanMW float64
	StdMW  float64
	// PeakMW is the largest sample seen in training.
	PeakMW float64
	// Samples is how many observations went in.
	Samples int
}

// String renders the signature compactly.
func (s Signature) String() string {
	return fmt.Sprintf("sig{uid=%d mean=%.1fmW std=%.1f peak=%.1f n=%d}",
		s.UID, s.MeanMW, s.StdMW, s.PeakMW, s.Samples)
}

// Verdict is the detector's judgement for one app.
type Verdict struct {
	UID app.UID
	// Anomalous marks a live trace that exceeds the trained profile.
	Anomalous bool
	// LiveMeanMW is the mean of the detection window.
	LiveMeanMW float64
	// TrainedMeanMW echoes the signature's mean.
	TrainedMeanMW float64
}

// traceSeg is a run of sampling frames over one stable app census:
// slots lists the sampled app slots (ascending — EachApp order), vals
// holds len(slots) samples per distinct frame, frame-major, and
// repeats[f] counts the consecutive ticks that stored frame f. A tick
// whose frame matches the last one bit for bit only bumps its count,
// so a device whose app powers sit still stores one frame for the whole
// run instead of one per tick, and the 1 Hz × devices × apps hot path
// neither grows nor allocates. An install/uninstall mid-window just
// starts a new segment.
type traceSeg struct {
	slots   []int32
	vals    []float64
	repeats []int
}

// push stores one frame, as a repeat of the last when every value
// matches it bit for bit.
func (s *traceSeg) push(vals []float64) {
	if n := len(s.vals); n > 0 && sameBits(s.vals[n-len(vals):], vals) {
		s.repeats[len(s.repeats)-1]++
		return
	}
	s.vals = append(s.vals, vals...)
	s.repeats = append(s.repeats, 1)
}

func sameBits(a, b []float64) bool {
	for i, v := range b {
		if math.Float64bits(a[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// runsFor iterates slot's samples within the segment in time order, as
// runs of n equal samples v.
func (s *traceSeg) runsFor(slot int32, fn func(v float64, n int)) {
	k, ok := slices.BinarySearch(s.slots, slot)
	if !ok {
		return
	}
	stride := len(s.slots)
	for f, n := range s.repeats {
		fn(s.vals[f*stride+k], n)
	}
}

// Detector samples per-app power from the meter on a fixed period,
// trains signatures over an initial window, then compares live windows
// against them.
type Detector struct {
	engine *sim.Engine
	meter  *hw.Meter
	pm     *app.PackageManager
	period time.Duration

	ticker *sim.Ticker

	// segs is the live trace log (see traceSeg); the last segment is
	// the active one.
	segs []traceSeg
	// frameSlots/frameVals are the current tick's scratch frame —
	// frameN is the logical length; the slices stay at full length and
	// are written by index so the hot callback never stores a slice
	// header (each such store is a GC write barrier). The slot census
	// is cached across ticks and rebuilt only when the package
	// manager's generation moves (install/uninstall).
	frameSlots []int32
	frameVals  []float64
	frameN     int
	censusGen  uint64
	censusOK   bool
	// token is the meter's change token at the last stored frame, and
	// tokenOK says that frame is the active segment's last one under
	// the current census: while both hold and the meter reports steady,
	// a tick repeats the frame without a meter pass.
	token   uint64
	tokenOK bool
	// sampleFn is the EachApp callback, built once so sampling does not
	// close over the receiver on every tick.
	sampleFn func(*app.App)
	sigs     map[app.UID]Signature
}

// NewDetector builds a detector; Start begins sampling.
func NewDetector(engine *sim.Engine, meter *hw.Meter, pm *app.PackageManager, period time.Duration) (*Detector, error) {
	if engine == nil || meter == nil || pm == nil {
		return nil, fmt.Errorf("powersig: nil dependency")
	}
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	d := &Detector{
		engine: engine,
		meter:  meter,
		pm:     pm,
		period: period,
		sigs:   make(map[app.UID]Signature),
	}
	d.sampleFn = func(a *app.App) {
		if a.System {
			return
		}
		s := app.Slot(a.UID)
		if s < 0 {
			return
		}
		n := d.frameN
		if n == len(d.frameSlots) {
			d.frameSlots = append(d.frameSlots, 0)
		}
		d.frameSlots[n] = int32(s)
		d.frameN = n + 1
	}
	return d, nil
}

// Start begins periodic sampling. Stop with Stop.
func (d *Detector) Start() {
	if d.ticker != nil {
		return
	}
	d.ticker = d.engine.Every(d.period, "powersig.sample", d.sample)
}

// Stop halts sampling.
func (d *Detector) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

func (d *Detector) sample() {
	// EachApp iterates the package manager's cached sorted list — the
	// per-sample copy+sort of Apps() dominated the fleet bench's
	// allocation profile at a 1 Hz sampling rate per device.
	if g := d.pm.Gen(); !d.censusOK || g != d.censusGen {
		d.frameN = 0
		d.pm.EachApp(d.sampleFn)
		d.censusGen, d.censusOK = g, true
		d.tokenOK = false
	}
	k := d.frameN
	if k == 0 {
		return
	}
	// No setter has run since the stored frame and no tail is live, so
	// the meter would return that frame again, bit for bit.
	tok, steady := d.meter.ChangeToken()
	if steady && d.tokenOK && tok == d.token {
		seg := &d.segs[len(d.segs)-1]
		seg.repeats[len(seg.repeats)-1]++
		return
	}
	slots := d.frameSlots[:k]
	vals := d.frameVals
	if cap(vals) < k {
		vals = make([]float64, k)
		d.frameVals = vals
	} else {
		vals = vals[:k]
	}
	// One bulk meter pass computes the whole frame; apps without live
	// meter state are zero-filled without a per-app lookup.
	d.meter.AppPowersInto(slots, vals)
	if n := len(d.segs); n == 0 || !slices.Equal(d.segs[n-1].slots, slots) {
		d.segs = append(d.segs, traceSeg{slots: slices.Clone(slots)})
	}
	d.segs[len(d.segs)-1].push(vals)
	d.token, d.tokenOK = tok, true
}

// eachRun iterates every sample of uid across segments in time order,
// as runs of n equal samples v.
func (d *Detector) eachRun(uid app.UID, fn func(v float64, n int)) {
	s := app.Slot(uid)
	if s < 0 {
		return
	}
	for i := range d.segs {
		d.segs[i].runsFor(int32(s), fn)
	}
}

// maxSlot reports the highest sampled app slot, -1 when none.
func (d *Detector) maxSlot() int32 {
	m := int32(-1)
	for i := range d.segs {
		if sl := d.segs[i].slots; len(sl) > 0 && sl[len(sl)-1] > m {
			m = sl[len(sl)-1] // slots are ascending
		}
	}
	return m
}

// TraceLen reports how many samples uid has accumulated.
func (d *Detector) TraceLen(uid app.UID) int {
	n := 0
	d.eachRun(uid, func(_ float64, c int) { n += c })
	return n
}

// summarizeUID folds uid's trace into a signature; ok is false when the
// trace is empty. The two accumulation passes expand each run and add
// its samples one at a time in time order, bit-identical to summarizing
// a contiguous trace slice.
func (d *Detector) summarizeUID(uid app.UID) (Signature, bool) {
	var sum, peak float64
	n := 0
	d.eachRun(uid, func(v float64, c int) {
		for range c {
			sum += v
		}
		if v > peak {
			peak = v
		}
		n += c
	})
	if n == 0 {
		return Signature{}, false
	}
	mean := sum / float64(n)
	var varsum float64
	d.eachRun(uid, func(v float64, c int) {
		dv := float64((v - mean) * (v - mean))
		for range c {
			varsum += dv
		}
	})
	return Signature{
		UID:     uid,
		MeanMW:  mean,
		StdMW:   math.Sqrt(varsum / float64(n)),
		PeakMW:  peak,
		Samples: n,
	}, true
}

// Train freezes the samples collected so far into per-app signatures and
// clears the live traces. Call after a known-benign observation window.
func (d *Detector) Train() error {
	trained := 0
	for s := int32(0); s <= d.maxSlot(); s++ {
		uid := app.FromSlot(int(s))
		if sig, ok := d.summarizeUID(uid); ok {
			d.sigs[uid] = sig
			trained++
		}
	}
	if trained == 0 {
		return fmt.Errorf("powersig: no samples to train on")
	}
	clear(d.segs)
	d.segs = d.segs[:0]
	d.tokenOK = false
	return nil
}

// Signatures returns the trained signatures sorted by UID.
func (d *Detector) Signatures() []Signature {
	out := make([]Signature, 0, len(d.sigs))
	for _, s := range d.sigs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UID < out[j].UID })
	return out
}

// slackMW tolerates small absolute drifts so near-zero trained profiles
// don't flag on noise-level activity.
const slackMW = 25

// Classify compares each app's live trace (sampled since Train) against
// its signature: a live mean beyond mean+3σ+slack, or beyond twice the
// trained peak (whichever is larger), is anomalous. Apps without a
// trained signature are judged against a zero profile.
func (d *Detector) Classify() []Verdict {
	// Slot order is UID order, so the dense log iterates already
	// sorted — no per-call key copy + sort.
	var out []Verdict
	for s := int32(0); s <= d.maxSlot(); s++ {
		uid := app.FromSlot(int(s))
		live, ok := d.summarizeUID(uid)
		if !ok {
			continue
		}
		sig := d.sigs[uid] // zero value for unknown apps
		threshold := sig.MeanMW + float64(3*sig.StdMW) + slackMW
		if alt := 2 * sig.PeakMW; alt > threshold {
			threshold = alt
		}
		out = append(out, Verdict{
			UID:           uid,
			Anomalous:     live.MeanMW > threshold,
			LiveMeanMW:    live.MeanMW,
			TrainedMeanMW: sig.MeanMW,
		})
	}
	return out
}

// Anomalous returns just the flagged UIDs from Classify, sorted.
func (d *Detector) Anomalous() []app.UID {
	var out []app.UID
	for _, v := range d.Classify() {
		if v.Anomalous {
			out = append(out, v.UID)
		}
	}
	return out
}
