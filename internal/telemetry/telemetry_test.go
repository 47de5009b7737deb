package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/app"
	"repro/internal/sim"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordSimEvent(0, "x", 1)
	r.RecordLifecycle(0, 1, "c", "a", "b")
	r.RecordPowerState(0, 1, "screen", 0, 1)
	r.RecordBattery(0, 1, 99)
	r.RecordAttribution(0, 1, 0.5)
	r.PowerHistogram("cpu").Observe(100)
	r.KeepKernelLog()
	r.ReleaseKernelLog()
	if r.Total() != 0 || r.Dropped() != 0 || r.Events() != nil || r.Metrics() != nil {
		t.Fatal("nil recorder accumulated state")
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var m *Metrics
	c := m.Counter("c")
	c.Inc()
	c.Add(2)
	g := m.Gauge("g")
	g.Set(1)
	h := m.Histogram("h", PowerBuckets)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if len(m.Counters())+len(m.Gauges())+len(m.Histograms()) != 0 {
		t.Fatal("nil registry reads as non-empty")
	}
	if err := m.Add(NewMetrics()); err != nil {
		t.Fatal(err)
	}
}

func TestRingWrapKeepsNewestOldestFirst(t *testing.T) {
	r := New(Options{EventCapacity: 4})
	names := []string{"a", "b", "c", "d", "e", "f"}
	for i, n := range names {
		r.RecordSimEvent(sim.Time(i)*sim.Second, n, i)
	}
	if r.Total() != 6 || r.Dropped() != 2 {
		t.Fatalf("total/dropped = %d/%d, want 6/2", r.Total(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, want := range []string{"c", "d", "e", "f"} {
		if evs[i].Name != want {
			t.Fatalf("events[%d] = %q, want %q (got %+v)", i, evs[i].Name, want, evs)
		}
	}
	// Partial fill: oldest-first without wrap.
	r2 := New(Options{EventCapacity: 4})
	r2.RecordSimEvent(0, "only", 0)
	if evs := r2.Events(); len(evs) != 1 || evs[0].Name != "only" {
		t.Fatalf("partial ring events = %+v", evs)
	}
}

func TestNegativeCapacityKeepsMetricsOnly(t *testing.T) {
	r := New(Options{EventCapacity: -1})
	r.RecordSimEvent(0, "x", 3)
	if len(r.Events()) != 0 {
		t.Fatal("negative capacity retained events")
	}
	if v := r.Metrics().Counter("sim.events_fired").Value(); v != 1 {
		t.Fatalf("events_fired = %v, want 1 (metrics must stay live)", v)
	}
}

func TestRecorderFeedsInstruments(t *testing.T) {
	r := New(Options{})
	r.RecordSimEvent(0, "a", 3)
	r.RecordSimEvent(sim.Second, "b", 7)
	r.RecordSimEvent(2*sim.Second, "c", 2)
	r.RecordLifecycle(0, 10001, "app/.Main", "stopped", "resumed")
	r.RecordPowerState(0, 1000, "screen", 0, 1)
	r.RecordBattery(0, 0.5, 99.9)
	r.RecordAttribution(0, 10001, 0.25)
	r.RecordAttribution(0, 10001, 0.75)
	r.PowerHistogram("cpu").Observe(123)

	m := r.Metrics()
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"sim.events_fired", m.Counter("sim.events_fired").Value(), 3},
		{"sim.queue_depth", m.Gauge("sim.queue_depth").Value(), 2},
		{"sim.queue_depth_max", m.Gauge("sim.queue_depth_max").Value(), 7},
		{"activity.lifecycle_transitions", m.Counter("activity.lifecycle_transitions").Value(), 1},
		{"hw.power_state_changes", m.Counter("hw.power_state_changes").Value(), 1},
		{"hw.battery_updates", m.Counter("hw.battery_updates").Value(), 1},
		{"acct.attributions", m.Counter("acct.attributions").Value(), 2},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	h := m.Histogram("acct.j_per_interval.uid10001", EnergyBuckets)
	if h.Count() != 2 || h.Sum() != 1.0 {
		t.Fatalf("uid histogram count/sum = %d/%v, want 2/1", h.Count(), h.Sum())
	}
	hc := m.Histogram("hw.mw.cpu", PowerBuckets)
	if hc.Count() != 1 || hc.Sum() != 123 {
		t.Fatalf("cpu mW histogram count/sum = %d/%v", hc.Count(), hc.Sum())
	}
}

func TestHistogramBucketing(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	counts := m.Histograms()[0].Counts()
	want := []uint64{2, 2, 1, 1} // <=1: {0.5, 1}; <=10: {5, 10}; <=100: {50}; inf: {1000}
	for i, n := range want {
		if counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], n, counts)
		}
	}
}

// TestAttributionHistogramPerUID: every UID keeps its own attributed-J
// distribution, named by the UID, whether it has a dense slot (the
// pseudo-UIDs, app UIDs in any order) or not (any other UID).
func TestAttributionHistogramPerUID(t *testing.T) {
	r := New(Options{EventCapacity: -1})
	uids := []app.UID{10005, app.UIDNone, app.UIDScreen, app.UIDSystem, 10000, 5, -7}
	for k := 1; k <= 2; k++ {
		for i, uid := range uids {
			r.RecordAttribution(0, uid, float64(i+k))
		}
	}
	m := r.Metrics()
	for i, uid := range uids {
		h := m.Histogram(fmt.Sprintf("acct.j_per_interval.uid%d", uid), EnergyBuckets)
		if h.Count() != 2 || h.Sum() != float64(2*i+3) {
			t.Errorf("uid %d: count %d sum %v, want 2 and %d", uid, h.Count(), h.Sum(), 2*i+3)
		}
	}
}

// TestObserveMatchesSearchFloat64s: Observe's inlined search puts every
// value in the bucket sort.SearchFloat64s picks, the first bound >= v:
// values below the first bound, equal to a bound, between bounds, past
// the last, ±Inf, -0 and NaN, which is >= no bound and so overflows.
func TestObserveMatchesSearchFloat64s(t *testing.T) {
	ladders := [][]float64{nil, {5}, {1, 10, 100}, PowerBuckets, EnergyBuckets, {-1, 0, 0, 3}}
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -2, 1e-12, 1e300}
	for _, ladder := range ladders {
		probe := append([]float64(nil), vals...)
		for _, b := range ladder {
			probe = append(probe, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		}
		for _, v := range probe {
			h := NewMetrics().Histogram("h", ladder)
			h.Observe(v)
			want := sort.SearchFloat64s(ladder, v)
			for i, n := range h.counts {
				if (n == 1) != (i == want) {
					t.Fatalf("bounds %v: Observe(%v) counts %v, want bucket %d", ladder, v, h.counts, want)
				}
			}
		}
	}
}

// TestAppendWholeMatchesFormatFloat: the integer fast path writes
// strconv.FormatFloat(x, 'f', 0, 64)'s bytes: exact halves round to
// even, the largest double below 0.5 rounds down, and -0, negatives,
// NaN, ±Inf and values of 2^53 and up take the fallback.
func TestAppendWholeMatchesFormatFloat(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 0.5, 1.5, 2.5, 0.49999999999999994, 74.5, 75.5,
		209.99999999999997, 1<<52 + 0.5, 1<<53 - 1, 1 << 53, 1e300, -0.4, -2.5,
		math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1<<53 - 0.5, 1<<63 + 1<<11,
	} {
		if got, want := string(appendWhole([]byte("x"), x)), "x"+strconv.FormatFloat(x, 'f', 0, 64); got != want {
			t.Errorf("appendWhole(%v) = %q, want %q", x, got, want)
		}
	}
}

// TestMetricsSortedAndStable: each section reads in series order
// whatever the registration order, a labelled series after its
// label-free namesake, so two registries fed the same updates in
// different orders read alike.
func TestMetricsSortedAndStable(t *testing.T) {
	build := func(order []string) *Metrics {
		m := NewMetrics()
		for _, n := range order {
			m.Counter(n, Label{"k", "v"}).Inc()
			m.Counter(n).Inc()
			m.Gauge("g." + n).Set(2)
			m.Histogram("h."+n, PowerBuckets).Observe(5)
		}
		return m
	}
	a := build([]string{"z", "a", "m"})
	b := build([]string{"m", "z", "a"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("registry depends on registration order:\n%+v\nvs\n%+v", a, b)
	}
	var names []string
	for _, c := range a.Counters() {
		names = append(names, fmt.Sprint(c.Name(), c.Labels()))
	}
	if want := []string{"a[]", "a[{k v}]", "m[]", "m[{k v}]", "z[]", "z[{k v}]"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("counters read %q, want %q", names, want)
	}
	if c, g := a.Counters()[0], a.Gauges()[0]; c.Value() != 1 || g.Name() != "g.a" || g.Value() != 2 {
		t.Fatalf("first counter %s=%v, first gauge %s=%v; want a=1, g.a=2", c.Name(), c.Value(), g.Name(), g.Value())
	}
	if hs := a.Histograms(); len(hs) != 3 || hs[0].Count() != 1 {
		t.Fatalf("%d histograms, want 3 with one sample each", len(hs))
	}
}

// TestAnomalyEventsRenderTheirText: an anomaly is recorded as numbers
// and a label, and Events reads it back with To holding the text the
// watchdog once rendered with fmt.Sprintf, and From empty; the ring
// itself keeps the label.
func TestAnomalyEventsRenderTheirText(t *testing.T) {
	r := New(Options{})
	r.RecordSimEvent(0, "boot", 1)
	r.RecordAnomaly(sim.Second, 10006, SignalDivergence, "FunGame", 389.99999999999994, 0.4)
	r.RecordAnomaly(2*sim.Second, 10001, SignalDrainSpike, "Burner <b>", 412.5, -3.5)
	r.RecordAnomaly(3*sim.Second, -1, SignalDeviceSpike, "device", 1e21, 2.5)
	want := []string{
		fmt.Sprintf("%s drives %.0f mW of collateral energy while drawing %.0f mW itself", "FunGame", 389.99999999999994, 0.4),
		fmt.Sprintf("%s draining %.0f mW against a %.0f mW baseline", "Burner <b>", 412.5, -3.5),
		fmt.Sprintf("device draining %.0f mW against a %.0f mW baseline", 1e21, 2.5),
	}
	for pass := 0; pass < 2; pass++ { // rendering leaves the ring as it was
		var got []string
		for _, ev := range r.Events() {
			if ev.Kind != KindAnomaly {
				continue
			}
			if ev.From != "" {
				t.Fatalf("anomaly event From = %q, want empty", ev.From)
			}
			got = append(got, ev.To)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: anomaly texts\n%q\nwant\n%q", pass, got, want)
		}
	}
	if labels := []string{r.buf[0].To, r.buf[1].To, r.buf[2].To}; labels[0] != "FunGame" || labels[2] != "device" {
		t.Fatalf("ring slots keep %q, want the labels", labels)
	}
}

// TestMetricsAdd: Add sums series by series, skips a nil registry,
// keeps labelled series apart from their label-free namesake, lets a
// later non-empty exemplar replace an earlier one (an empty one erases
// nothing), and refuses mismatched bounds.
func TestMetricsAdd(t *testing.T) {
	mk := func(cv, gv float64, hv ...float64) *Metrics {
		m := NewMetrics()
		m.Counter("c").Add(cv)
		m.Gauge("g").Set(gv)
		h := m.Histogram("h", []float64{1, 10})
		for _, v := range hv {
			h.Observe(v)
		}
		return m
	}
	merged := NewMetrics()
	for _, o := range []*Metrics{mk(1, 2, 0.5), nil, mk(3, 4, 5, 100)} {
		if err := merged.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	if v := merged.Counter("c").Value(); v != 4 {
		t.Fatalf("merged counter = %v, want 4", v)
	}
	if v := merged.Gauge("g").Value(); v != 6 {
		t.Fatalf("merged gauge = %v, want 6", v)
	}
	h := merged.Histograms()[0]
	if h.Count() != 3 || h.Sum() != 105.5 {
		t.Fatalf("merged histogram count/sum = %d/%v, want 3/105.5", h.Count(), h.Sum())
	}
	if c := h.Counts(); c[0] != 1 || c[1] != 1 || c[2] != 1 {
		t.Fatalf("merged histogram counts = %v", c)
	}

	k := func(v string) Label { return Label{Name: "k", Value: v} }
	a := NewMetrics()
	a.Counter("c", k("y")).Add(1)
	a.Counter("c", k("x")).Add(2)
	a.Counter("c").Add(1)
	a.Histogram("h", []float64{1, 10}, k("x")).ObserveExemplar(0.5, "aa")
	a.Histogram("h", []float64{1, 10}, k("x")).ObserveExemplar(5, "ab")
	b := NewMetrics()
	b.Counter("c", k("x")).Add(3)
	b.Histogram("h", []float64{1, 10}, k("x")).ObserveExemplar(5, "bb")
	b.Histogram("h", []float64{1, 10}, k("x")).ObserveExemplar(0.5, "")
	labelled := NewMetrics()
	if err := labelled.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := labelled.Add(b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range labelled.Counters() {
		got = append(got, fmt.Sprint(c.Labels(), c.Value()))
	}
	if want := []string{"[] 1", "[{k x}] 5", "[{k y}] 1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("labelled counters %q, want %q", got, want)
	}
	lh := labelled.Histograms()[0]
	if lh.Count() != 4 || lh.Sum() != 11 || !reflect.DeepEqual(lh.Counts(), []uint64{2, 2, 0}) ||
		!reflect.DeepEqual(lh.Exemplars(), []string{"aa", "bb"}) {
		t.Fatalf("labelled histogram count %d sum %v counts %v exemplars %q; want 4, 11, [2 2 0], [aa bb]",
			lh.Count(), lh.Sum(), lh.Counts(), lh.Exemplars())
	}

	// Mismatched bounds must refuse to merge.
	m2 := NewMetrics()
	m2.Histogram("h", []float64{1, 2, 3}).Observe(1)
	if err := mk(1, 1, 1).Add(m2); err == nil {
		t.Fatal("Add accepted mismatched histogram bounds")
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	events := []Event{
		{T: sim.Second, Kind: KindSimEvent, Name: "tick", V0: 1},
		{T: 2 * sim.Second, Kind: KindBattery, Name: "battery", V0: 0.5, V1: 99},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v", lines, err)
		}
		if _, ok := m["kind"].(string); !ok {
			t.Fatalf("line %d: kind not a string: %v", lines, m["kind"])
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("jsonl lines = %d, want 2", lines)
	}
}

func TestInstrumentEngineRecordsKernelEvents(t *testing.T) {
	e := sim.NewEngine()
	r := New(Options{})
	if !InstrumentEngine(e, r) {
		t.Fatal("InstrumentEngine did not attach the trace log")
	}
	e.Schedule(sim.Second, "a", func() {})
	e.Schedule(2*sim.Second, "b", func() {})
	if err := e.Drain(10); err != nil {
		t.Fatal(err)
	}
	if r.Total() != 2 {
		t.Fatalf("recorded %d events, want 2", r.Total())
	}
	evs := r.Events()
	if evs[0].Kind != KindSimEvent || evs[0].Name != "a" || evs[0].T != sim.Second {
		t.Fatalf("first event = %+v", evs[0])
	}
	if InstrumentEngine(nil, r) || InstrumentEngine(e, nil) {
		t.Fatal("InstrumentEngine must report false for nil arguments")
	}
}

// TestRecorderSharedAcrossEngines: one recorder instrumenting several
// engines run one after another (the CLIs' serial experiment worlds)
// counts every engine's firings, not just the first engine's.
func TestRecorderSharedAcrossEngines(t *testing.T) {
	r := New(Options{})
	for i, name := range []string{"first", "second"} {
		e := sim.NewEngine()
		if !InstrumentEngine(e, r) {
			t.Fatalf("engine %d: trace log not installed", i)
		}
		e.Schedule(sim.Second, name, func() {})
		if err := e.Drain(10); err != nil {
			t.Fatal(err)
		}
	}
	if v := r.Metrics().Counter("sim.events_fired").Value(); v != 2 {
		t.Fatalf("sim.events_fired = %v, want 2 (one firing per engine)", v)
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Name != "first" || evs[1].Name != "second" {
		t.Fatalf("events = %+v, want [first second]", evs)
	}
}
