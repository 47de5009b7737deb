package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Label is one name="value" pair on a series.
type Label struct {
	Name  string
	Value string
}

// series is an instrument's identity: its metric name and label pairs,
// fixed when the registry creates it.
type series struct {
	name   string
	labels []Label
}

// Name reports the series' metric name.
func (s *series) Name() string { return s.name }

// Labels reports the series' label pairs in registration order. The
// slice is the instrument's own: read it, never write it.
func (s *series) Labels() []Label { return s.labels }

// compare orders s against t by name, then by label pairs in turn
// (label name, then value), a shorter label list first: the order of
// every registry section.
func (s *series) compare(t series) int {
	if c := strings.Compare(s.name, t.name); c != 0 {
		return c
	}
	for i := 0; i < len(s.labels) && i < len(t.labels); i++ {
		if c := strings.Compare(s.labels[i].Name, t.labels[i].Name); c != 0 {
			return c
		}
		if c := strings.Compare(s.labels[i].Value, t.labels[i].Value); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(s.labels), len(t.labels))
}

// Counter is a monotone accumulator. Methods are nil-safe so call sites
// never branch on whether telemetry is wired.
type Counter struct {
	v float64
	series
}

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
type Gauge struct {
	v float64
	series
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
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
// exemplars, once ObserveExemplar is given a span, holds one span per
// finite bucket: the last one observed there, "" for none.
type Histogram struct {
	bounds    []float64
	counts    []uint64
	sum       float64
	n         uint64
	exemplars []string
	series
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	h.counts[h.bucket(v)]++
}

// ObserveExemplar records one sample and, when span is non-empty and
// the sample lands in a finite bucket, keeps span as that bucket's
// exemplar.
func (h *Histogram) ObserveExemplar(v float64, span string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if span == "" {
		return
	}
	if b := h.bucket(v); b < len(h.bounds) {
		if h.exemplars == nil {
			h.exemplars = make([]string, len(h.bounds))
		}
		h.exemplars[b] = span
	}
}

// bucket is sort.SearchFloat64s's search without its closure: the
// first bound >= v. NaN is >= no bound, so it lands in the overflow
// bucket.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.bounds[m] >= v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
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

// Bounds reports the finite bucket bounds, ascending. Read-only.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Counts reports the per-bucket counts, one more than Bounds (the
// overflow bucket last). Read-only.
func (h *Histogram) Counts() []uint64 { return h.counts }

// Exemplars reports one span per finite bucket, "" for none, or nil
// when no observation carried a span. Read-only.
func (h *Histogram) Exemplars() []string { return h.exemplars }

// add folds o into h: counts and sums add, and a non-empty exemplar of
// o replaces h's. Mismatched bounds are an error.
func (h *Histogram) add(o *Histogram) error {
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("telemetry: merge %q: bucket count mismatch (%d vs %d)",
			o.name, len(h.bounds), len(o.bounds))
	}
	for i, b := range o.bounds {
		if h.bounds[i] != b {
			return fmt.Errorf("telemetry: merge %q: bound %d mismatch (%g vs %g)",
				o.name, i, h.bounds[i], b)
		}
	}
	h.n += o.n
	h.sum += o.sum
	for i, n := range o.counts {
		h.counts[i] += n
	}
	for i, ex := range o.exemplars {
		if ex == "" {
			continue
		}
		if h.exemplars == nil {
			h.exemplars = make([]string, len(o.exemplars))
		}
		h.exemplars[i] = ex
	}
	return nil
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

// Metrics is the registry of named instruments: three sections,
// counters, gauges and histograms, each a slice kept in series order
// (see series.compare), so two registries that saw the same updates
// read and render byte-identically whatever their registration order.
// Writers record into it, and every reader (the Prometheus encoder,
// the fleet fold, /metrics) reads it in place.
//
// Like the Recorder (and the engine both observe), a registry is
// single-goroutine and has no synchronization: instrument updates are
// plain stores, which is what keeps the enabled hot path cheap. A
// registry shared across goroutines needs its owner's lock. Fleet
// runs give each device its own registry and fold them with Add once
// each device has finished.
type Metrics struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter returns the counter of series (name, labels), creating it on
// first use. Returns nil (a valid no-op instrument) on a nil registry.
func (m *Metrics) Counter(name string, labels ...Label) *Counter {
	if m == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(m.counters, series{name, labels}, (*Counter).compare)
	if !ok {
		m.counters = slices.Insert(m.counters, i, &Counter{series: series{name, slices.Clone(labels)}})
	}
	return m.counters[i]
}

// Gauge returns the gauge of series (name, labels), creating it on
// first use.
func (m *Metrics) Gauge(name string, labels ...Label) *Gauge {
	if m == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(m.gauges, series{name, labels}, (*Gauge).compare)
	if !ok {
		m.gauges = slices.Insert(m.gauges, i, &Gauge{series: series{name, slices.Clone(labels)}})
	}
	return m.gauges[i]
}

// Histogram returns the histogram of series (name, labels), creating
// it with the given bucket bounds on first use (bounds are ignored if
// it already exists; they must be sorted ascending).
func (m *Metrics) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if m == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(m.hists, series{name, labels}, (*Histogram).compare)
	if !ok {
		h := &Histogram{
			bounds: slices.Clone(bounds),
			counts: make([]uint64, len(bounds)+1),
			series: series{name, slices.Clone(labels)},
		}
		m.hists = slices.Insert(m.hists, i, h)
	}
	return m.hists[i]
}

// Counters returns the counters in series order; nil on a nil
// registry. The slice is the registry's own: read it, never write it.
func (m *Metrics) Counters() []*Counter {
	if m == nil {
		return nil
	}
	return m.counters
}

// Gauges returns the gauges in series order, like Counters.
func (m *Metrics) Gauges() []*Gauge {
	if m == nil {
		return nil
	}
	return m.gauges
}

// Histograms returns the histograms in series order, like Counters.
func (m *Metrics) Histograms() []*Histogram {
	if m == nil {
		return nil
	}
	return m.hists
}

// Add folds o into m in place, series by series: counters and gauges
// sum (a fleet gauge aggregate is the sum of per-device final values),
// histograms add bucket counts and sums, and a later non-empty
// exemplar replaces an earlier one. Every float addition follows the
// order of the Add calls, so folding per-device registries in
// device-index order gives the same bits for any worker count. A
// series m lacks is created at its position and o's values added to
// its zeros, which copies them (but for a gauge set to -0, which
// folds to +0). Add only reads o, and folding in series m already
// holds allocates nothing. A nil o adds nothing; mismatched histogram
// bounds are an error, and leave m part-folded.
func (m *Metrics) Add(o *Metrics) error {
	if m == nil || o == nil {
		return nil
	}
	for _, c := range o.counters {
		m.Counter(c.name, c.labels...).v += c.v
	}
	for _, g := range o.gauges {
		m.Gauge(g.name, g.labels...).v += g.v
	}
	for _, h := range o.hists {
		if err := m.Histogram(h.name, h.bounds, h.labels...).add(h); err != nil {
			return err
		}
	}
	return nil
}
