package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordSimEvent(0, "x", 1)
	r.RecordLifecycle(0, 1, "c", "a", "b")
	r.RecordPowerState(0, 1, "screen", 0, 1)
	r.RecordBattery(0, 1, 99)
	r.RecordAttribution(0, 1, 0.5)
	r.ObserveComponentMW("cpu", 100)
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
	g.SetMax(2)
	h := m.Histogram("h", PowerBuckets)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if s := m.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
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
	r.ObserveComponentMW("cpu", 123)

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
	s := m.Snapshot().Histograms[0]
	want := []uint64{2, 2, 1, 1} // <=1: {0.5, 1}; <=10: {5, 10}; <=100: {50}; inf: {1000}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], n, s.Counts)
		}
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	build := func(order []string) *Snapshot {
		m := NewMetrics()
		for _, n := range order {
			m.Counter(n).Inc()
			m.Gauge("g." + n).Set(2)
			m.Histogram("h."+n, PowerBuckets).Observe(5)
		}
		return m.Snapshot()
	}
	a := build([]string{"z", "a", "m"})
	b := build([]string{"m", "z", "a"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshot depends on registration order:\n%+v\nvs\n%+v", a, b)
	}
	for i := 1; i < len(a.Counters); i++ {
		if a.Counters[i-1].Name >= a.Counters[i].Name {
			t.Fatalf("counters not sorted: %+v", a.Counters)
		}
	}
	if c, g := a.Counters[0], a.Gauges[0]; c.Name != "a" || c.Value != 1 || g.Name != "g.a" || g.Value != 2 {
		t.Fatalf("first counter %+v, first gauge %+v; want a=1, g.a=2", c, g)
	}
	if len(a.Histograms) != 3 || a.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v, want 3 with one sample each", a.Histograms)
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(cv, gv float64, hv ...float64) *Snapshot {
		m := NewMetrics()
		m.Counter("c").Add(cv)
		m.Gauge("g").Set(gv)
		h := m.Histogram("h", []float64{1, 10})
		for _, v := range hv {
			h.Observe(v)
		}
		return m.Snapshot()
	}
	merged, err := MergeSnapshots([]*Snapshot{mk(1, 2, 0.5), nil, mk(3, 4, 5, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if v := merged.Counters[0].Value; v != 4 {
		t.Fatalf("merged counter = %v, want 4", v)
	}
	if v := merged.Gauges[0].Value; v != 6 {
		t.Fatalf("merged gauge = %v, want 6", v)
	}
	h := merged.Histograms[0]
	if h.Count != 3 || h.Sum != 105.5 {
		t.Fatalf("merged histogram count/sum = %d/%v, want 3/105.5", h.Count, h.Sum)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Fatalf("merged histogram counts = %v", h.Counts)
	}

	// Labelled series merge per label set and sort after their
	// unlabelled namesake; a later non-empty exemplar replaces an
	// earlier one, an empty one erases nothing.
	lab := func(v string) []Label { return []Label{{Name: "k", Value: v}} }
	a := &Snapshot{
		Counters: []CounterSnapshot{{Name: "c", Labels: lab("y"), Value: 1}, {Name: "c", Labels: lab("x"), Value: 2}, {Name: "c", Value: 1}},
		Histograms: []HistogramSnapshot{{Name: "h", Labels: lab("x"), Count: 1, Sum: 0.5,
			Bounds: []float64{1, 10}, Counts: []uint64{1, 0, 0}, Exemplars: []string{"aa", "ab"}}},
	}
	b := &Snapshot{
		Counters: []CounterSnapshot{{Name: "c", Labels: lab("x"), Value: 3}},
		Histograms: []HistogramSnapshot{{Name: "h", Labels: lab("x"), Count: 1, Sum: 5,
			Bounds: []float64{1, 10}, Counts: []uint64{0, 1, 0}, Exemplars: []string{"", "bb"}}},
	}
	labelled, err := MergeSnapshots([]*Snapshot{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := &Snapshot{
		Counters: []CounterSnapshot{{Name: "c", Value: 1}, {Name: "c", Labels: lab("x"), Value: 5}, {Name: "c", Labels: lab("y"), Value: 1}},
		Histograms: []HistogramSnapshot{{Name: "h", Labels: lab("x"), Count: 2, Sum: 5.5,
			Bounds: []float64{1, 10}, Counts: []uint64{1, 1, 0}, Exemplars: []string{"aa", "bb"}}},
	}
	if !reflect.DeepEqual(labelled, want) {
		t.Fatalf("labelled merge = %+v, want %+v", labelled, want)
	}

	// Mismatched bounds must refuse to merge.
	m2 := NewMetrics()
	m2.Histogram("h", []float64{1, 2, 3}).Observe(1)
	if _, err := MergeSnapshots([]*Snapshot{mk(1, 1, 1), m2.Snapshot()}); err == nil {
		t.Fatal("merge accepted mismatched histogram bounds")
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
