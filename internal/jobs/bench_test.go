package jobs

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/corpus"
)

// BenchmarkFleetJob16 is the jobs service's write path without HTTP:
// each op submits one cold 16-device, 4 h fleet job to a Manager and
// waits for it, cycling the corpus cells with a fresh seed per op, the
// way the repo benchmark's jobs-cold workload does. Its devices carry
// what every job device carries (a recorder, a watchdog, a flame
// collector, the checker, head-sampled tracing), so -benchmem shows
// the job path's allocations; bytes/device spreads them over the
// fleet.
func BenchmarkFleetJob16(b *testing.B) {
	const devices = 16
	cells := corpus.Cells()
	m := NewManager(Options{})
	defer m.Close()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		j, err := m.Submit(Spec{
			Kind:    KindFleet,
			Cell:    cells[k%len(cells)].String(),
			Seed:    int64(1000 + k),
			Devices: devices,
			Horizon: Duration(4 * time.Hour),
		})
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if st := j.Status(); st.State != StateDone || st.Cached {
			b.Fatalf("job %s: state %s, cached %v (%s)", j.ID, st.State, st.Cached, st.Error)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*devices), "bytes/device")
}
