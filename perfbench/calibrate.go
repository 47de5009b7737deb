package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Host-speed calibration.
//
// On a shared machine the speed of the host drifts: the same fleet run
// takes 40 ms one minute and 80 ms a few minutes later, in CPU time as
// much as in wall time, because the neighbours share the cores, caches
// and memory bandwidth. No length of run averages that out. So the timed
// end-to-end figures are scaled to a reference host speed: between
// windows of load, with nothing in flight, the benchmark times a fixed
// reference kernel, and a process's times are multiplied by calRefMS
// over the median of its calibrations. The kernel is the benchmark's
// own code, so a change to the repository changes the scaled figures
// exactly as much as it changes the measured ones.

// calRefMS is the reference host speed: the time one calibration round
// takes on it (about the median on a 2-CPU cloud VM).
const calRefMS = 15.0

// calSteps is one kernel call's work, calRounds how many rounds one
// calibration times after a warm-up round, and calWindow the length of
// a window of load between two calibrations.
const (
	calSteps  = 60_000
	calRounds = 5
	calWindow = time.Second
)

// calEvents is the size of the reference kernel's event queue.
const calEvents = 2048

type calItem struct {
	at float64
	id uint32
}

// calKernel is the reference kernel: a small discrete-event loop with a
// binary-heap queue, map-keyed accumulators, floating-point work and
// short-lived allocations, the kinds of work the simulator does. It
// returns a checksum so that the compiler keeps the work.
func calKernel(seed uint64, steps int) float64 {
	q := make([]calItem, 0, calEvents)
	x := seed
	rnd := func() uint64 {
		x = splitmix64(x)
		return x
	}
	push := func(it calItem) {
		q = append(q, it)
		for i := len(q) - 1; i > 0; {
			p := (i - 1) / 2
			if q[p].at <= q[i].at {
				break
			}
			q[p], q[i] = q[i], q[p]
			i = p
		}
	}
	pop := func() calItem {
		top := q[0]
		n := len(q) - 1
		q[0] = q[n]
		q = q[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].at < q[c].at {
				c++
			}
			if q[i].at <= q[c].at {
				break
			}
			q[i], q[c] = q[c], q[i]
			i = c
		}
		return top
	}
	for i := 0; i < calEvents; i++ {
		push(calItem{float64(rnd()%1000) / 7, uint32(i)})
	}
	energy := make(map[uint32]float64, calEvents/4)
	var sum float64
	var rows [][]float64
	for s := 0; s < steps; s++ {
		it := pop()
		r := rnd()
		p := math.Sqrt(float64(r%997)+it.at) * math.Exp(-float64(r%13)/16)
		energy[it.id%(calEvents/4)] += p
		if r%8 == 0 {
			row := make([]float64, 6+r%10)
			row[0] = p
			rows = append(rows, row)
			if len(rows) > 256 {
				for _, old := range rows {
					sum += old[0]
				}
				rows = rows[:0]
			}
		}
		push(calItem{it.at + float64(r%4096)/64, it.id})
	}
	for _, e := range energy {
		sum += e
	}
	return sum
}

// calSink keeps the kernels' checksums alive.
var calSink float64

// calibrate runs the reference kernel on nproc goroutines at once, a
// warm-up round and then calRounds rounds one after another, and returns
// the median wall time of a timed round in milliseconds. The collector
// is off while it runs and the kernel's garbage is collected before it
// returns, so the time does not depend on how much heap the program
// under test holds, and the program's next collection does not pay for
// the kernel.
func calibrate() float64 {
	n := nproc()
	gc := debug.SetGCPercent(-1)
	walls := make([]float64, calRounds+1)
	sums := make([]float64, n)
	for r := range walls {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sums[g] = calKernel(uint64(g+1), calSteps)
			}(g)
		}
		wg.Wait()
		walls[r] = ms(time.Since(t0))
		for _, s := range sums {
			calSink += s
		}
	}
	debug.SetGCPercent(gc)
	runtime.GC()
	return median(walls[1:])
}

// hostScale is the factor that takes the times measured in a process
// to the reference host speed, given the process's calibrations.
func hostScale(cals []float64) float64 {
	return calRefMS / median(cals)
}
