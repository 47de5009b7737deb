package telemetry_test

// The Snapshot family the registry replaced, kept as the reference:
// registries were frozen into sorted Snapshots (Snapshot, Sort over
// seriesKey) and folded by Snapshot.Add and MergeSnapshots, and the
// Prometheus encoder read those. Metrics.Add must fold registries into
// the bytes that path rendered and the values it held, bit for bit.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/telemetry"
)

// CounterSnapshot is one counter's frozen value.
type CounterSnapshot struct {
	Name   string
	Labels []telemetry.Label
	Value  float64
}

// GaugeSnapshot is one gauge's frozen value.
type GaugeSnapshot struct {
	Name   string
	Labels []telemetry.Label
	Value  float64
}

// HistogramSnapshot is one histogram's frozen state. Counts has one
// more element than Bounds (the overflow bucket). Exemplars, when
// present, has one entry per finite bucket, "" for none.
type HistogramSnapshot struct {
	Name      string
	Labels    []telemetry.Label
	Count     uint64
	Sum       float64
	Bounds    []float64
	Counts    []uint64
	Exemplars []string
}

// Snapshot is an order-stable freeze of a registry: every section is
// sorted by series (name, then labels).
type Snapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// seriesKey identifies a series within a section: its name, then each
// label's name and value, NUL-separated. NUL sorts below every other
// byte, so ordering by key is ordering by name, then labels.
func seriesKey(name string, labels []telemetry.Label) string {
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

// Sort orders every section by series key.
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

// MergeSnapshots folds snaps into one fresh aggregate, in the given
// order: Add over each snapshot, starting from an empty one.
func MergeSnapshots(snaps []*Snapshot) (*Snapshot, error) {
	out := &Snapshot{}
	for _, o := range snaps {
		if err := out.Add(o); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Add folds o into s in place, series by series: counters and gauges
// sum, histograms add bucket counts and sums, and a later non-empty
// exemplar replaces an earlier one. A series s lacks is inserted at
// its sorted position, its histogram slices copied. A nil o adds
// nothing; mismatched histogram bounds are an error.
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
			return fmt.Errorf("merge %q: bucket count mismatch (%d vs %d)", h.Name, len(dst.Bounds), len(h.Bounds))
		}
		for i, b := range h.Bounds {
			if dst.Bounds[i] != b {
				return fmt.Errorf("merge %q: bound %d mismatch (%g vs %g)", h.Name, i, dst.Bounds[i], b)
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

// writeSnapshot is the Prometheus encoder as it read a Snapshot.
func writeSnapshot(w io.Writer, s *Snapshot) error {
	var b strings.Builder
	var last string
	family := func(name, typ string) string {
		name = refPromName(name)
		if name != last {
			b.WriteString("# TYPE " + name + " " + typ + "\n")
			last = name
		}
		return name
	}
	sample := func(name, suffix string, labels []telemetry.Label, le, value, ex string) {
		b.WriteString(name)
		b.WriteString(suffix)
		sep := byte('{')
		for _, l := range labels {
			b.WriteByte(sep)
			b.WriteString(l.Name + "=" + strconv.Quote(l.Value))
			sep = ','
		}
		if le != "" {
			b.WriteByte(sep)
			b.WriteString(`le="` + le + `"`)
			sep = ','
		}
		if sep == ',' {
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(value)
		if ex != "" {
			b.WriteString(" # {span=" + strconv.Quote(ex) + "} 1")
		}
		b.WriteByte('\n')
	}
	promFloat := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range s.Counters {
		sample(family(c.Name, "counter"), "", c.Labels, "", promFloat(c.Value), "")
	}
	for _, g := range s.Gauges {
		sample(family(g.Name, "gauge"), "", g.Labels, "", promFloat(g.Value), "")
	}
	for _, h := range s.Histograms {
		name := family(h.Name, "histogram")
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			var ex string
			if i < len(h.Exemplars) {
				ex = h.Exemplars[i]
			}
			sample(name, "_bucket", h.Labels, promFloat(bound), strconv.FormatUint(cum, 10), ex)
		}
		if len(h.Counts) > len(h.Bounds) {
			cum += h.Counts[len(h.Bounds)]
		}
		sample(name, "_bucket", h.Labels, "+Inf", strconv.FormatUint(cum, 10), "")
		sample(name, "_sum", h.Labels, "", promFloat(h.Sum), "")
		sample(name, "_count", h.Labels, "", strconv.FormatUint(h.Count, 10), "")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func refPromName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r == '_' || r == ':', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// snapshotOf copies m's series in the registry's own order, as the
// reference's Metrics.Snapshot did before its Sort.
func snapshotOf(m *telemetry.Metrics) *Snapshot {
	s := &Snapshot{}
	for _, c := range m.Counters() {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.Name(), Labels: c.Labels(), Value: c.Value()})
	}
	for _, g := range m.Gauges() {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.Name(), Labels: g.Labels(), Value: g.Value()})
	}
	for _, h := range m.Histograms() {
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name: h.Name(), Labels: h.Labels(), Count: h.Count(), Sum: h.Sum(),
			Bounds:    slices.Clone(h.Bounds()),
			Counts:    slices.Clone(h.Counts()),
			Exemplars: slices.Clone(h.Exemplars()),
		})
	}
	return s
}

// sameSnapshot reports the first difference between a and b, floats
// compared by their bits and a missing exemplar list read as all "".
func sameSnapshot(a, b *Snapshot) error {
	sameSeries := func(what string, i int, an string, al []telemetry.Label, bn string, bl []telemetry.Label) error {
		if an != bn || !slices.Equal(al, bl) {
			return fmt.Errorf("%s %d: series %s%v vs %s%v", what, i, an, al, bn, bl)
		}
		return nil
	}
	if len(a.Counters) != len(b.Counters) || len(a.Gauges) != len(b.Gauges) || len(a.Histograms) != len(b.Histograms) {
		return fmt.Errorf("sections hold %d/%d/%d vs %d/%d/%d series",
			len(a.Counters), len(a.Gauges), len(a.Histograms), len(b.Counters), len(b.Gauges), len(b.Histograms))
	}
	for i := range a.Counters {
		x, y := a.Counters[i], b.Counters[i]
		if err := sameSeries("counter", i, x.Name, x.Labels, y.Name, y.Labels); err != nil {
			return err
		}
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return fmt.Errorf("counter %s%v: %v vs %v", x.Name, x.Labels, x.Value, y.Value)
		}
	}
	for i := range a.Gauges {
		x, y := a.Gauges[i], b.Gauges[i]
		if err := sameSeries("gauge", i, x.Name, x.Labels, y.Name, y.Labels); err != nil {
			return err
		}
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return fmt.Errorf("gauge %s%v: %v vs %v", x.Name, x.Labels, x.Value, y.Value)
		}
	}
	for i := range a.Histograms {
		x, y := a.Histograms[i], b.Histograms[i]
		if err := sameSeries("histogram", i, x.Name, x.Labels, y.Name, y.Labels); err != nil {
			return err
		}
		if x.Count != y.Count || math.Float64bits(x.Sum) != math.Float64bits(y.Sum) ||
			!slices.Equal(x.Bounds, y.Bounds) || !slices.Equal(x.Counts, y.Counts) {
			return fmt.Errorf("histogram %s%v: count %d sum %v bounds %v counts %v vs %d %v %v %v",
				x.Name, x.Labels, x.Count, x.Sum, x.Bounds, x.Counts, y.Count, y.Sum, y.Bounds, y.Counts)
		}
		for k := 0; k < max(len(x.Exemplars), len(y.Exemplars)); k++ {
			var ex, ey string
			if k < len(x.Exemplars) {
				ex = x.Exemplars[k]
			}
			if k < len(y.Exemplars) {
				ey = y.Exemplars[k]
			}
			if ex != ey {
				return fmt.Errorf("histogram %s%v bucket %d: exemplar %q vs %q", x.Name, x.Labels, k, ex, ey)
			}
		}
	}
	return nil
}

// The series universe random registries draw from: names that prefix
// one another, and label lists that share a name, prefix one another
// or differ only in length, so every rule of the series order is hit.
var (
	refNames  = []string{"a", "a.b", "ab", "hw.mw.cpu", "sim.events_fired", "z"}
	refLabels = [][]telemetry.Label{
		nil,
		{{Name: "k", Value: "x"}},
		{{Name: "k", Value: "xy"}},
		{{Name: "k", Value: "y"}},
		{{Name: "k", Value: "x"}, {Name: "z", Value: "1"}},
		{{Name: "j", Value: "x"}},
		{{Name: "kk", Value: ""}},
	}
	refLadders = [][]float64{{0.1, 1, 10}, telemetry.PowerBuckets, telemetry.EnergyBuckets}
)

// ladder is the bounds every registry uses for histogram name.
func ladder(name string) []float64 {
	return refLadders[len(name)%len(refLadders)]
}

// seriesOps records into one series; a registry applies its series'
// ops in a random order, each series' own updates in order.
type seriesOps func(m *telemetry.Metrics)

// randomOps draws a device-like registry's updates: a random subset of
// the universe in each section, label-free and labelled, some
// histograms carrying exemplars.
func randomOps(rng *rand.Rand) []seriesOps {
	var ops []seriesOps
	for _, name := range refNames {
		for _, labels := range refLabels {
			if rng.Intn(3) == 0 {
				v, inc := rng.ExpFloat64()*100, rng.Intn(2) == 0
				ops = append(ops, func(m *telemetry.Metrics) {
					c := m.Counter(name, labels...)
					c.Add(v)
					if inc {
						c.Inc()
					}
				})
			}
			if rng.Intn(3) == 0 {
				v := rng.NormFloat64() * 1e3
				ops = append(ops, func(m *telemetry.Metrics) { m.Gauge(name, labels...).Set(v) })
			}
			if rng.Intn(3) == 0 {
				n := rng.Intn(6)
				vals, spans := make([]float64, n), make([]string, n)
				for i := range vals {
					vals[i] = math.Exp(rng.NormFloat64()*6) - 0.01
					if rng.Intn(2) == 0 {
						spans[i] = fmt.Sprintf("%016x", rng.Uint64())
					}
				}
				ops = append(ops, func(m *telemetry.Metrics) {
					h := m.Histogram(name, ladder(name), labels...)
					for i, v := range vals {
						if spans[i] == "" {
							h.Observe(v)
						} else {
							h.ObserveExemplar(v, spans[i])
						}
					}
				})
			}
		}
	}
	return ops
}

// build applies ops in the order perm gives.
func build(ops []seriesOps, perm []int) *telemetry.Metrics {
	m := telemetry.NewMetrics()
	for _, i := range perm {
		ops[i](m)
	}
	return m
}

func render(t *testing.T, m *telemetry.Metrics) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := obsv.WritePrometheus(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestMetricsAddMatchesReference folds seeded random registries with
// Metrics.Add and with the reference Snapshot path: the fold renders
// the reference's bytes through WritePrometheus, holds its series in
// its order with every value bit for bit, and leaves every input as it
// was. A registry's series order does not depend on the order its
// series were registered, and nil and empty inputs add nothing.
func TestMetricsAddMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var regs []*telemetry.Metrics
		var snaps []*Snapshot
		for d := 0; d < 1+rng.Intn(6); d++ {
			switch rng.Intn(8) {
			case 0:
				regs, snaps = append(regs, nil), append(snaps, nil)
				continue
			case 1:
				regs, snaps = append(regs, telemetry.NewMetrics()), append(snaps, &Snapshot{})
				continue
			}
			ops := randomOps(rng)
			m := build(ops, rng.Perm(len(ops)))
			if again := build(ops, rng.Perm(len(ops))); !bytes.Equal(render(t, again), render(t, m)) {
				t.Fatalf("seed %d device %d: the registry reads differently in another registration order", seed, d)
			}
			s := snapshotOf(m)
			s.Sort()
			if err := sameSnapshot(snapshotOf(m), s); err != nil {
				t.Fatalf("seed %d device %d: registry out of series order: %v", seed, d, err)
			}
			regs, snaps = append(regs, m), append(snaps, s)
		}
		before := make([]*Snapshot, len(regs))
		for i, m := range regs {
			if m != nil {
				before[i] = snapshotOf(m)
			}
		}

		want, err := MergeSnapshots(snaps)
		if err != nil {
			t.Fatal(err)
		}
		got := telemetry.NewMetrics()
		for _, m := range regs {
			if err := got.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		var wantProm bytes.Buffer
		if err := writeSnapshot(&wantProm, want); err != nil {
			t.Fatal(err)
		}
		if gotProm := render(t, got); !bytes.Equal(gotProm, wantProm.Bytes()) {
			t.Fatalf("seed %d: the fold renders\n%s\nthe reference\n%s", seed, gotProm, wantProm.Bytes())
		}
		if err := sameSnapshot(snapshotOf(got), want); err != nil {
			t.Fatalf("seed %d: fold vs reference: %v", seed, err)
		}
		for i, m := range regs {
			if m == nil {
				continue
			}
			if err := sameSnapshot(snapshotOf(m), before[i]); err != nil {
				t.Fatalf("seed %d: device %d's registry changed under the fold: %v", seed, i, err)
			}
		}
	}
}

// TestMetricsAddRefusesMismatchedBounds: a histogram whose bounds
// differ from the folded one's is an error on both paths.
func TestMetricsAddRefusesMismatchedBounds(t *testing.T) {
	for _, bounds := range [][]float64{{1, 2}, {0.1, 1, 11}, {0.1, 1, 10, 100}} {
		a, b := telemetry.NewMetrics(), telemetry.NewMetrics()
		a.Histogram("h", []float64{0.1, 1, 10}).Observe(1)
		b.Histogram("h", bounds).Observe(1)
		_, refErr := MergeSnapshots([]*Snapshot{snapshotOf(a), snapshotOf(b)})
		if err := a.Add(b); err == nil || refErr == nil {
			t.Fatalf("bounds %v: Add error %v, reference error %v; both must fail", bounds, err, refErr)
		}
	}
}
