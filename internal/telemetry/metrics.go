package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Counter is a monotone accumulator. Methods are nil-safe so call sites
// never branch on whether telemetry is wired.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add accumulates d (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(d float64) {
	if c != nil && d > 0 {
		c.v += d
	}
}

// Value reports the accumulated total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value.
type Gauge struct{ v float64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// SetMax keeps the maximum of the current value and v.
func (g *Gauge) SetMax(v float64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value reports the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram accumulates a distribution over fixed bucket boundaries:
// counts[i] counts observations <= bounds[i], with one overflow bucket.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	// sort.SearchFloat64s's search without its closure: the first bound
	// >= v. NaN is >= no bound, so it lands in the overflow bucket.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.bounds[m] >= v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	h.counts[lo]++
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Standard bucket ladders. Decade-ish spacing covers the simulation's
// dynamic range without per-metric tuning.
var (
	// PowerBuckets spans component draws from sub-mW to multi-watt.
	PowerBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
	// EnergyBuckets spans per-interval attributions from nanojoules to
	// kilojoules.
	EnergyBuckets = []float64{1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.1, 1, 10, 100, 1000}
)

// Metrics is a registry of named instruments. Like the Recorder (and the
// engine both observe), it is single-goroutine: instrument updates are
// plain stores, which is what keeps the enabled hot path cheap. Fleet
// runs give each device its own registry and merge snapshots.
type Metrics struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op instrument) on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (bounds are ignored if it already exists;
// they must be sorted ascending).
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	if m == nil {
		return nil
	}
	h := m.hists[name]
	if h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		m.hists[name] = h
	}
	return h
}

// Label is one name="value" pair on a snapshot series. The live
// registries are label-free; labelled series (per-endpoint request
// metrics, build identity) are built directly as snapshot values by
// the sources that own them.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// CounterSnapshot is one counter's frozen value.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// GaugeSnapshot is one gauge's frozen value.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramSnapshot is one histogram's frozen state. Counts has one more
// element than Bounds (the overflow bucket). Exemplars, when present,
// has one entry per finite bucket: the span ID of the last observation
// that landed there, "" for none.
type HistogramSnapshot struct {
	Name      string    `json:"name"`
	Labels    []Label   `json:"labels,omitempty"`
	Count     uint64    `json:"count"`
	Sum       float64   `json:"sum"`
	Bounds    []float64 `json:"bounds"`
	Counts    []uint64  `json:"counts"`
	Exemplars []string  `json:"exemplars,omitempty"`
}

// Snapshot is an order-stable freeze of a registry: every section is
// sorted by series (name, then labels), so two registries that saw the
// same updates render byte-identically regardless of registration or
// map order.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// seriesKey identifies a series within a section: its name, then each
// label's name and value, NUL-separated. NUL sorts below every other
// byte, so ordering by key is ordering by name, then labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// Sort orders every section by series key — the order Snapshot and
// MergeSnapshots produce. Sources that build labelled series by hand
// call it before publishing.
func (s *Snapshot) Sort() {
	sort.Slice(s.Counters, func(i, j int) bool {
		return seriesKey(s.Counters[i].Name, s.Counters[i].Labels) < seriesKey(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return seriesKey(s.Gauges[i].Name, s.Gauges[i].Labels) < seriesKey(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return seriesKey(s.Histograms[i].Name, s.Histograms[i].Labels) < seriesKey(s.Histograms[j].Name, s.Histograms[j].Labels)
	})
}

// Snapshot freezes the registry. Nil-safe: a nil registry yields an
// empty snapshot.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{}
	if m == nil {
		return s
	}
	for name, c := range m.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.v})
	}
	for name, g := range m.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.v})
	}
	for name, h := range m.hists {
		bounds := make([]float64, len(h.bounds))
		copy(bounds, h.bounds)
		counts := make([]uint64, len(h.counts))
		copy(counts, h.counts)
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name: name, Count: h.n, Sum: h.sum, Bounds: bounds, Counts: counts,
		})
	}
	s.Sort()
	return s
}

// MergeSnapshots folds snaps into one fresh aggregate, in the given
// order: Add over each snapshot, starting from an empty one. Because
// every float accumulation follows the slice order, merging per-device
// snapshots in device-index order yields byte-identical aggregates for
// any worker count. Nil snapshots are skipped; mismatched histogram
// bounds are an error.
func MergeSnapshots(snaps []*Snapshot) (*Snapshot, error) {
	out := &Snapshot{}
	for _, o := range snaps {
		if err := out.Add(o); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Add folds o into s in place, series by series (name plus labels):
// counters and gauges sum (a fleet gauge aggregate is the sum of
// per-device final values), histograms add bucket counts and sums, and
// a later non-empty exemplar replaces an earlier one. A series s lacks
// is inserted at its sorted position, its histogram slices copied, so s
// never shares what it will write with o; s stays sorted if it was (an
// empty snapshot is). It writes nothing into o, and folding in
// label-free series s already holds, as a device registry's are,
// allocates nothing. A nil o adds nothing; mismatched histogram bounds
// are an error, and leave s part-folded.
func (s *Snapshot) Add(o *Snapshot) error {
	if o == nil {
		return nil
	}
	for _, c := range o.Counters {
		i, ok := slices.BinarySearchFunc(s.Counters, seriesKey(c.Name, c.Labels), func(x CounterSnapshot, k string) int {
			return strings.Compare(seriesKey(x.Name, x.Labels), k)
		})
		if ok {
			s.Counters[i].Value += c.Value
		} else {
			s.Counters = slices.Insert(s.Counters, i, c)
		}
	}
	for _, g := range o.Gauges {
		i, ok := slices.BinarySearchFunc(s.Gauges, seriesKey(g.Name, g.Labels), func(x GaugeSnapshot, k string) int {
			return strings.Compare(seriesKey(x.Name, x.Labels), k)
		})
		if ok {
			s.Gauges[i].Value += g.Value
		} else {
			s.Gauges = slices.Insert(s.Gauges, i, g)
		}
	}
	for _, h := range o.Histograms {
		at, ok := slices.BinarySearchFunc(s.Histograms, seriesKey(h.Name, h.Labels), func(x HistogramSnapshot, k string) int {
			return strings.Compare(seriesKey(x.Name, x.Labels), k)
		})
		if !ok {
			h.Bounds = append([]float64(nil), h.Bounds...)
			h.Counts = append([]uint64(nil), h.Counts...)
			h.Exemplars = append([]string(nil), h.Exemplars...)
			s.Histograms = slices.Insert(s.Histograms, at, h)
			continue
		}
		dst := &s.Histograms[at]
		if len(dst.Bounds) != len(h.Bounds) {
			return fmt.Errorf("telemetry: merge %q: bucket count mismatch (%d vs %d)",
				h.Name, len(dst.Bounds), len(h.Bounds))
		}
		for i, b := range h.Bounds {
			if dst.Bounds[i] != b {
				return fmt.Errorf("telemetry: merge %q: bound %d mismatch (%g vs %g)",
					h.Name, i, dst.Bounds[i], b)
			}
		}
		dst.Count += h.Count
		dst.Sum += h.Sum
		for i, n := range h.Counts {
			dst.Counts[i] += n
		}
		for i, ex := range h.Exemplars {
			if ex == "" {
				continue
			}
			if dst.Exemplars == nil {
				dst.Exemplars = make([]string, len(h.Exemplars))
			}
			dst.Exemplars[i] = ex
		}
	}
	return nil
}
