package fleet

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// seriesLine names one series in a dump: its section, name and labels.
func seriesLine(section, name string, labels []telemetry.Label) string {
	return fmt.Sprintf("%s %s%v", section, name, labels)
}

// histLine renders a histogram's state with its sum's bits.
func histLine(n uint64, sum float64, counts []uint64, exemplars []string) string {
	return fmt.Sprintf("n=%d sum=%x counts=%v ex=%q", n, math.Float64bits(sum), counts, exemplars)
}

// dump lists m's series in the registry's own order, one line each,
// every float as its bits.
func dump(m *telemetry.Metrics) string {
	var b strings.Builder
	for _, c := range m.Counters() {
		fmt.Fprintf(&b, "%s %x\n", seriesLine("counter", c.Name(), c.Labels()), math.Float64bits(c.Value()))
	}
	for _, g := range m.Gauges() {
		fmt.Fprintf(&b, "%s %x\n", seriesLine("gauge", g.Name(), g.Labels()), math.Float64bits(g.Value()))
	}
	for _, h := range m.Histograms() {
		fmt.Fprintf(&b, "%s %s\n", seriesLine("histogram", h.Name(), h.Labels()), histLine(h.Count(), h.Sum(), h.Counts(), h.Exemplars()))
	}
	return b.String()
}

// refFold is the fold the block fold must equal: every series summed
// in a map keyed by its NUL-joined name and labels, in device order,
// then listed section by section in key order, in dump's form.
func refFold(regs []*telemetry.Metrics) (string, error) {
	type acc struct {
		name      string
		labels    []telemetry.Label
		v, sum    float64
		n         uint64
		bounds    []float64
		counts    []uint64
		exemplars []string
	}
	key := func(name string, labels []telemetry.Label) string {
		var b strings.Builder
		b.WriteString(name)
		for _, l := range labels {
			b.WriteString("\x00" + l.Name + "\x00" + l.Value)
		}
		return b.String()
	}
	sections := [3]map[string]*acc{{}, {}, {}}
	get := func(s int, name string, labels []telemetry.Label) *acc {
		a := sections[s][key(name, labels)]
		if a == nil {
			a = &acc{name: name, labels: labels}
			sections[s][key(name, labels)] = a
		}
		return a
	}
	for _, m := range regs {
		for _, c := range m.Counters() {
			get(0, c.Name(), c.Labels()).v += c.Value()
		}
		for _, g := range m.Gauges() {
			get(1, g.Name(), g.Labels()).v += g.Value()
		}
		for _, h := range m.Histograms() {
			a := get(2, h.Name(), h.Labels())
			if a.counts == nil {
				a.bounds, a.counts = h.Bounds(), make([]uint64, len(h.Counts()))
			} else if !reflect.DeepEqual(a.bounds, h.Bounds()) {
				return "", fmt.Errorf("merge %q: bounds mismatch", h.Name())
			}
			a.n += h.Count()
			a.sum += h.Sum()
			for i, n := range h.Counts() {
				a.counts[i] += n
			}
			for i, ex := range h.Exemplars() {
				if ex == "" {
					continue
				}
				if a.exemplars == nil {
					a.exemplars = make([]string, len(h.Exemplars()))
				}
				a.exemplars[i] = ex
			}
		}
	}
	var b strings.Builder
	for s, section := range []string{"counter", "gauge", "histogram"} {
		keys := make([]string, 0, len(sections[s]))
		for k := range sections[s] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			a := sections[s][k]
			if s < 2 {
				fmt.Fprintf(&b, "%s %x\n", seriesLine(section, a.name, a.labels), math.Float64bits(a.v))
			} else {
				fmt.Fprintf(&b, "%s %s\n", seriesLine(section, a.name, a.labels), histLine(a.n, a.sum, a.counts, a.exemplars))
			}
		}
	}
	return b.String(), nil
}

// deviceRegistries are fold inputs shaped like device registries —
// label-free — with what only some have: series a later device adds,
// and histogram exemplars, one replaced by a later device. labelled
// adds series with labels, which device registries never have, beside
// their label-free namesakes.
func deviceRegistries(labelled bool) []*telemetry.Metrics {
	var regs []*telemetry.Metrics
	for d := 0; d < 5; d++ {
		m := telemetry.NewMetrics()
		if labelled { // registered first: order of registration is not order of series
			lab := telemetry.Label{Name: "endpoint", Value: fmt.Sprintf("e%d", d%2)}
			m.Counter("requests", lab).Add(float64(d))
			h := m.Histogram("duration", []float64{0.1, 1, 10}, lab)
			h.ObserveExemplar(0.5, fmt.Sprintf("span%d", d))
			h.ObserveExemplar(float64(d), "")
		}
		m.Counter("sim.events_fired").Add(float64(100 + d))
		m.Counter("acct.attributions").Add(0.1 * float64(d+1))
		m.Gauge("sim.queue_depth_max").Set(float64(d) / 3)
		h := m.Histogram("hw.mw.cpu", telemetry.PowerBuckets)
		for k := 0; k <= d; k++ {
			h.Observe(float64(k*k) * 7.3)
		}
		if d >= 3 { // series only later devices have
			m.Counter("check.violations").Inc()
			m.Histogram("acct.j_per_interval.uid10001", telemetry.EnergyBuckets).Observe(1e-4 * float64(d))
		}
		m.Histogram("duration", []float64{0.1, 1, 10}).ObserveExemplar([]float64{0.05, 0.5, 5}[d%3], fmt.Sprintf("span%d", d))
		regs = append(regs, m)
	}
	return regs
}

// TestBlockFoldMatchesReference: folding device registries into a
// block in place gives, after every device, the map-based fold's
// series in its order with every value bit for bit, reads nothing but
// each device's registry and writes nothing into it, and refuses a
// histogram whose bounds differ from the block's.
func TestBlockFoldMatchesReference(t *testing.T) {
	spec := &Spec{Telemetry: true}
	regs := deviceRegistries(true)
	before := make([]string, len(regs))
	for i, m := range regs {
		before[i] = dump(m)
	}
	var blk accBlock
	for i, m := range regs {
		blk.fold(spec, &Result{Index: i, Metrics: m})
		want, err := refFold(regs[:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if got := dump(blk.metrics); got != want {
			t.Fatalf("after device %d the block holds\n%s\nwant\n%s", i, got, want)
		}
	}
	if blk.merr != nil {
		t.Fatal(blk.merr)
	}
	for i, m := range regs {
		if got := dump(m); got != before[i] {
			t.Fatalf("device %d's registry changed under the fold:\n%s\nwas\n%s", i, got, before[i])
		}
	}

	bad := telemetry.NewMetrics()
	bad.Histogram("hw.mw.cpu", []float64{1, 2}).Observe(1)
	blk.fold(spec, &Result{Index: len(regs), Metrics: bad})
	if _, err := refFold(append(regs, bad)); blk.merr == nil || err == nil {
		t.Fatalf("a bucket-bound mismatch: fold error %v, reference error %v; both must fail", blk.merr, err)
	}
}

// TestBlockFoldWarmAllocatesNothing pins a warm fold — a device
// registry whose series the block already holds — at zero allocations.
func TestBlockFoldWarmAllocatesNothing(t *testing.T) {
	spec := &Spec{Telemetry: true}
	regs := deviceRegistries(false)
	var blk accBlock
	for i, m := range regs {
		blk.fold(spec, &Result{Index: i, Metrics: m})
	}
	res := &Result{Metrics: regs[len(regs)-1]}
	if allocs := testing.AllocsPerRun(100, func() { blk.fold(spec, res) }); allocs != 0 {
		t.Fatalf("a warm block fold allocated %.1f times, want 0", allocs)
	}
	if blk.merr != nil {
		t.Fatal(blk.merr)
	}
}
