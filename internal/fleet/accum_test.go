package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/telemetry"
)

// refMerge is the merge the block fold used before it folded in place:
// a fresh aggregate per call, positions found through maps, sorted at
// the end. The fold must reproduce its bytes.
func refMerge(snaps []*telemetry.Snapshot) (*telemetry.Snapshot, error) {
	key := func(name string, labels []telemetry.Label) string {
		var b strings.Builder
		b.WriteString(name)
		for _, l := range labels {
			b.WriteString("\x00" + l.Name + "\x00" + l.Value)
		}
		return b.String()
	}
	out := &telemetry.Snapshot{}
	counters, gauges, hists := map[string]int{}, map[string]int{}, map[string]int{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, c := range s.Counters {
			if i, ok := counters[key(c.Name, c.Labels)]; ok {
				out.Counters[i].Value += c.Value
			} else {
				counters[key(c.Name, c.Labels)] = len(out.Counters)
				out.Counters = append(out.Counters, c)
			}
		}
		for _, g := range s.Gauges {
			if i, ok := gauges[key(g.Name, g.Labels)]; ok {
				out.Gauges[i].Value += g.Value
			} else {
				gauges[key(g.Name, g.Labels)] = len(out.Gauges)
				out.Gauges = append(out.Gauges, g)
			}
		}
		for _, h := range s.Histograms {
			at, ok := hists[key(h.Name, h.Labels)]
			if !ok {
				h.Bounds = append([]float64(nil), h.Bounds...)
				h.Counts = append([]uint64(nil), h.Counts...)
				h.Exemplars = append([]string(nil), h.Exemplars...)
				hists[key(h.Name, h.Labels)] = len(out.Histograms)
				out.Histograms = append(out.Histograms, h)
				continue
			}
			dst := &out.Histograms[at]
			if !reflect.DeepEqual(dst.Bounds, h.Bounds) {
				return nil, fmt.Errorf("merge %q: bounds mismatch", h.Name)
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
	}
	sort.Slice(out.Counters, func(i, j int) bool {
		return key(out.Counters[i].Name, out.Counters[i].Labels) < key(out.Counters[j].Name, out.Counters[j].Labels)
	})
	sort.Slice(out.Gauges, func(i, j int) bool {
		return key(out.Gauges[i].Name, out.Gauges[i].Labels) < key(out.Gauges[j].Name, out.Gauges[j].Labels)
	})
	sort.Slice(out.Histograms, func(i, j int) bool {
		return key(out.Histograms[i].Name, out.Histograms[i].Labels) < key(out.Histograms[j].Name, out.Histograms[j].Labels)
	})
	return out, nil
}

// deviceSnapshots are fold inputs shaped like device registries —
// label-free — with what only some have: a series a later device adds,
// and histogram exemplars, one replaced by a later device. labelled
// adds series with labels, which device registries never have.
func deviceSnapshots(labelled bool) []*telemetry.Snapshot {
	var snaps []*telemetry.Snapshot
	for d := 0; d < 5; d++ {
		m := telemetry.NewMetrics()
		m.Counter("sim.events_fired").Add(float64(100 + d))
		m.Counter("acct.attributions").Add(0.1 * float64(d+1))
		m.Gauge("sim.queue_depth_max").Set(float64(d) / 3)
		h := m.Histogram("hw.mw.cpu", telemetry.PowerBuckets)
		for k := 0; k <= d; k++ {
			h.Observe(float64(k*k) * 7.3)
		}
		if d >= 3 { // a series only later devices have
			m.Counter("check.violations").Inc()
			m.Histogram("acct.j_per_interval.uid10001", telemetry.EnergyBuckets).Observe(1e-4 * float64(d))
		}
		s := m.Snapshot()
		ex := make([]string, 3)
		ex[d%3] = fmt.Sprintf("span%d", d)
		s.Histograms = append(s.Histograms, telemetry.HistogramSnapshot{
			Name: "duration", Count: 1, Sum: 0.5 * float64(d),
			Bounds: []float64{0.1, 1, 10}, Counts: []uint64{1, 0, 0, 0}, Exemplars: ex,
		})
		if labelled {
			lab := []telemetry.Label{{Name: "endpoint", Value: fmt.Sprintf("e%d", d%2)}}
			s.Counters = append(s.Counters, telemetry.CounterSnapshot{Name: "requests", Labels: lab, Value: float64(d)})
			s.Histograms = append(s.Histograms, telemetry.HistogramSnapshot{
				Name: "duration", Labels: lab, Count: 2, Sum: float64(d),
				Bounds: []float64{0.1, 1, 10}, Counts: []uint64{0, 1, 1, 0}, Exemplars: ex,
			})
		}
		s.Sort()
		snaps = append(snaps, s)
	}
	return snaps
}

func promBytes(t *testing.T, s *telemetry.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := obsv.WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// cloneSnapshot deep-copies s, to show later that the fold left s as
// it was.
func cloneSnapshot(s *telemetry.Snapshot) *telemetry.Snapshot {
	c, err := refMerge([]*telemetry.Snapshot{s})
	if err != nil {
		panic(err)
	}
	return c
}

// TestBlockFoldMatchesMerge: folding device snapshots into a block in
// place renders the same Prometheus bytes as the fresh-aggregate merge
// over them, writes nothing into any device's snapshot, and refuses a
// histogram whose bounds differ from the block's.
func TestBlockFoldMatchesMerge(t *testing.T) {
	spec := &Spec{Telemetry: true}
	snaps := deviceSnapshots(true)
	before := make([]*telemetry.Snapshot, len(snaps))
	for i, s := range snaps {
		before[i] = cloneSnapshot(s)
	}
	var blk accBlock
	for i, s := range snaps {
		blk.fold(spec, &Result{Index: i, Metrics: s})
		want, err := refMerge(snaps[:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := promBytes(t, blk.metrics), promBytes(t, want); !bytes.Equal(got, want) {
			t.Fatalf("after device %d the block renders\n%s\nwant\n%s", i, got, want)
		}
	}
	if blk.merr != nil {
		t.Fatal(blk.merr)
	}
	for i := range snaps {
		if !reflect.DeepEqual(snaps[i], before[i]) {
			t.Fatalf("device %d's snapshot changed under the fold:\n%+v\nwas\n%+v", i, snaps[i], before[i])
		}
	}
	if merged, err := telemetry.MergeSnapshots(snaps); err != nil || !bytes.Equal(promBytes(t, merged), promBytes(t, blk.metrics)) {
		t.Fatalf("MergeSnapshots disagrees with the block fold (err %v)", err)
	}

	m := telemetry.NewMetrics()
	m.Histogram("hw.mw.cpu", []float64{1, 2}).Observe(1)
	bad := m.Snapshot()
	blk.fold(spec, &Result{Index: len(snaps), Metrics: bad})
	if _, err := refMerge(append(snaps, bad)); blk.merr == nil || err == nil {
		t.Fatalf("a bucket-bound mismatch: fold error %v, merge error %v; both must fail", blk.merr, err)
	}
}

// TestBlockFoldWarmAllocatesNothing pins a warm fold — a device
// snapshot whose series the block already holds — at zero allocations.
func TestBlockFoldWarmAllocatesNothing(t *testing.T) {
	spec := &Spec{Telemetry: true}
	snaps := deviceSnapshots(false)
	var blk accBlock
	for i, s := range snaps {
		blk.fold(spec, &Result{Index: i, Metrics: s})
	}
	res := &Result{Metrics: snaps[len(snaps)-1]}
	if allocs := testing.AllocsPerRun(100, func() { blk.fold(spec, res) }); allocs != 0 {
		t.Fatalf("a warm block fold allocated %.1f times, want 0", allocs)
	}
	if blk.merr != nil {
		t.Fatal(blk.merr)
	}
}
