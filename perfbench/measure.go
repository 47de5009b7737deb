package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between the two closest ranks (Hyndman–Fan type 7, the
// numpy default). xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples strictly above the p-quantile: the tail a
// reported percentile rests on. A percentile is only worth reporting
// when at least ten samples lie beyond it.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

const mib = 1 << 20

// Heap readings come from runtime/metrics, which does not stop the
// world, so the peak sampler can poll often without perturbing the run.
const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	heapAllocsMetric  = "/gc/heap/allocs:bytes"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative count of bytes allocated on the heap.
func allocBytes() uint64 { return readUint(heapAllocsMetric) }

// liveHeap forces two collections (the second empties sync.Pool victim
// caches) and returns the bytes still held by live objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readUint(heapObjectsMetric)
}

// heapSampler polls the heap-object bytes every period until stop,
// which returns the samples once the polling goroutine has exited.
type heapSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjectsMetric}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the polling and returns the 99th percentile of the samples:
// the heap's high-water mark without the single highest sample, which
// depends on where a collection happened to fall.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return percentile(h.samples, 0.99)
}

// gcStats is the slice of runtime.MemStats the traced run reports.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
	cpuFrac float64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{cycles: m.NumGC, pauseNs: m.PauseTotalNs, cpuFrac: m.GCCPUFraction}
}

// opResult is the outcome of one measured operation: one job request
// cycle, or one whole fleet run.
type opResult struct {
	lat       time.Duration
	attempted int // operations the system was asked to do (requests or devices)
	failed    int
	devices   int     // devices simulated, or whose results were served
	simHours  float64 // device-sim-hours simulated or served
	// bad names the first output that did not match its expected value.
	bad string
	// traced marks an operation whose layer calls were traced.
	traced bool
	// samples are the latencies (ms) the operation reports, when they are
	// not its own: a fleet run reports each device's.
	samples []float64
}

// phase aggregates one measured phase.
type phase struct {
	wall       time.Duration
	wallTraced time.Duration // the part of wall spent on traced operations
	ops        int           // operations issued
	lat        []float64     // ms, successful untraced operations
	latTraced  []float64     // ms, successful traced operations
	// samples are the latencies (ms) the successful untraced operations
	// report: their own, or their devices' on the fleets.
	samples   []float64
	attempted int
	failed    int
	devices   int
	// devicesTraced counts the devices of traced operations.
	devicesTraced int
	simHours      float64
	allocBytes    uint64
	// peakHeap and retained are the heap figures at the memory
	// checkpoint: the 99th percentile of heap samples up to it, and the
	// live heap after forced collections.
	peakHeap float64
	retained uint64
	bad      string
}

// measure runs op from clients goroutines in a closed loop until the
// deadline has passed and at least minOps operations have been issued.
// Each client takes the next operation index from a shared counter, so
// operation k is the same input whichever client runs it.
//
// The heap figures are taken at a fixed amount of work, not at the
// deadline, so that a faster system, which completes more operations
// in the same time, does not read as one that holds more memory: once
// operations 0..memOps-1 have all ended, and before operation memOps
// starts, measure stops the heap sampler and reads the live heap. The
// clock stops while it does. memOps == 0 takes no heap figures.
func measure(seconds float64, clients, minOps, memOps int, op func(client, k int) opResult) phase {
	var (
		mu       sync.Mutex
		idle     = sync.NewCond(&mu)
		ph       phase
		next     int
		inflight int
		paused   time.Duration
		wg       sync.WaitGroup
	)
	minOps = max(minOps, memOps)
	var heap *heapSampler
	if memOps > 0 {
		heap = startHeapSampler(5 * time.Millisecond)
	}
	checkpoint := func() {
		t := time.Now()
		ph.peakHeap = heap.stop()
		ph.retained = liveHeap()
		paused += time.Since(t)
	}
	checked := memOps == 0
	a0 := allocBytes()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				for !checked && next == memOps {
					if inflight == 0 {
						checkpoint()
						checked = true
						idle.Broadcast()
					} else {
						idle.Wait()
					}
				}
				k := next
				if k >= minOps && !time.Now().Before(deadline.Add(paused)) {
					mu.Unlock()
					return
				}
				next++
				inflight++
				mu.Unlock()
				r := op(c, k)
				mu.Lock()
				if inflight--; inflight == 0 {
					idle.Broadcast()
				}
				ph.attempted += r.attempted
				ph.failed += r.failed
				ph.devices += r.devices
				ph.simHours += r.simHours
				switch {
				case r.failed > 0:
				case r.traced:
					ph.latTraced = append(ph.latTraced, ms(r.lat))
					ph.devicesTraced += r.devices
				default:
					ph.lat = append(ph.lat, ms(r.lat))
					if r.samples == nil {
						ph.samples = append(ph.samples, ms(r.lat))
					}
					ph.samples = append(ph.samples, r.samples...)
				}
				if r.bad != "" && ph.bad == "" {
					ph.bad = r.bad
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start) - paused
	ph.allocBytes = allocBytes() - a0
	ph.ops = next
	return ph
}

// add appends a later phase's operations to p; traced says whether
// that phase's operations were traced.
func (p *phase) add(q phase, traced bool) {
	p.wall += q.wall
	if traced {
		p.wallTraced += q.wall
	}
	p.ops += q.ops
	p.lat = append(p.lat, q.lat...)
	p.latTraced = append(p.latTraced, q.latTraced...)
	p.samples = append(p.samples, q.samples...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.devices += q.devices
	p.devicesTraced += q.devicesTraced
	p.simHours += q.simHours
	p.allocBytes += q.allocBytes
	if p.bad == "" {
		p.bad = q.bad
	}
}

// timed runs op from clients goroutines in a closed loop for about
// seconds, in windows of calWindow, and calibrates the host before each
// window and after the last. It returns the load's phase and the
// calibrations. Operation indices start at first and run on across
// windows.
func timed(seconds float64, clients, first int, op func(client, k int) opResult) (phase, []float64) {
	n := max(1, int(math.Round(seconds/calWindow.Seconds())))
	cals := []float64{calibrate()}
	var ph phase
	for i := 0; i < n; i++ {
		base := first + ph.ops
		w := measure(seconds/float64(n), clients, 1, 0, func(c, k int) opResult { return op(c, base+k) })
		cals = append(cals, calibrate())
		ph.add(w, false)
	}
	return ph, cals
}
