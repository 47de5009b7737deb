package main

import (
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/jobs"
)

// jobsSpeedupGate: a cached resubmission must be at least this many
// times faster than the cold run of the same batch. The cache is a map
// lookup against a full fleet simulation, so 50x is a floor, not a
// stretch — falling under it means the control plane grew per-submit
// overhead that defeats its own caching.
const jobsSpeedupGate = 50.0

// defaultJobsReps: min-over-reps denoises the wall clocks the same way
// the fleet study does.
const defaultJobsReps = 3

// jobsStudySpecs is the study batch: one scenario job per corpus cell
// at the minimum horizon — 16 distinct content addresses.
func jobsStudySpecs() []jobs.Spec {
	cells := corpus.Cells()
	specs := make([]jobs.Spec, len(cells))
	for i, c := range cells {
		specs[i] = jobs.Spec{
			Kind:    jobs.KindScenario,
			Cell:    c.String(),
			Seed:    int64(100 + i),
			Horizon: jobs.Duration(time.Hour),
		}
	}
	return specs
}

// jobsBatch submits every spec to m and waits for all of them,
// returning the wall time and whether every job came from the cache.
func jobsBatch(m *jobs.Manager, specs []jobs.Spec) (time.Duration, bool, error) {
	start := time.Now()
	handles := make([]*jobs.Job, len(specs))
	for i, s := range specs {
		j, err := m.Submit(s)
		if err != nil {
			return 0, false, fmt.Errorf("submit %s: %w", s.Cell, err)
		}
		handles[i] = j
	}
	allCached := true
	for _, j := range handles {
		<-j.Done()
		st := j.Status()
		if st.State != jobs.StateDone {
			return 0, false, fmt.Errorf("job %s (%s): %s %s", j.ID, j.Spec.Cell, st.State, st.Error)
		}
		if !st.Cached {
			allCached = false
		}
	}
	return time.Since(start), allCached, nil
}

// jobsStudy measures the batch cold (fresh manager, empty cache) and
// cached (immediate resubmission), min-over-reps, and checks the
// speedup gate. The queue is sized to the batch so the study measures
// execution, not backpressure.
func jobsStudy(sh shape) (*artifact, error) {
	reps := sh.Reps
	if reps <= 0 {
		reps = defaultJobsReps
	}
	specs := jobsStudySpecs()
	var coldMin, cachedMin time.Duration
	var hitRate float64
	for r := 0; r < reps; r++ {
		m := jobs.NewManager(jobs.Options{QueueDepth: len(specs)})
		cold, cached0, err := jobsBatch(m, specs)
		if err != nil {
			m.Close()
			return nil, err
		}
		if cached0 {
			m.Close()
			return nil, fmt.Errorf("cold batch reported cached on a fresh manager")
		}
		warm, cached1, err := jobsBatch(m, specs)
		if err != nil {
			m.Close()
			return nil, err
		}
		if !cached1 {
			m.Close()
			return nil, fmt.Errorf("resubmitted batch missed the cache")
		}
		cs := m.CacheStats()
		hitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		m.Close()
		if r == 0 || cold < coldMin {
			coldMin = cold
		}
		if r == 0 || warm < cachedMin {
			cachedMin = warm
		}
	}

	coldMS := float64(coldMin) / float64(time.Millisecond)
	cachedMS := float64(cachedMin) / float64(time.Millisecond)
	a := &artifact{
		shape: shape{Reps: reps},
		Modes: []mode{{Name: "cold", WallMS: coldMS}, {Name: "cached", WallMS: cachedMS}},
		Gates: []experiments.GateResult{experiments.AtLeast("speedup", coldMS/cachedMS, jobsSpeedupGate)},
		Counts: map[string]float64{
			"jobs":                float64(len(specs)),
			"cold_jobs_per_sec":   float64(len(specs)) / coldMin.Seconds(),
			"cached_jobs_per_sec": float64(len(specs)) / cachedMin.Seconds(),
			"hit_rate":            hitRate,
		},
	}
	gate := a.Gates[0]
	fmt.Printf("=== Jobs control plane: cold vs content-addressed cache (%d jobs, min over %d reps) ===\n",
		len(specs), reps)
	fmt.Printf("cold    %9.2fms  %8.1f jobs/s\n", coldMS, a.Counts["cold_jobs_per_sec"])
	fmt.Printf("cached  %9.2fms  %8.1f jobs/s\n", cachedMS, a.Counts["cached_jobs_per_sec"])
	fmt.Printf("speedup %.0fx (gate >= %.0fx) pass=%v, hit rate %.2f\n",
		gate.Value, gate.Limit, gate.Pass, hitRate)
	if !gate.Pass {
		return a, fmt.Errorf("jobs cache speedup %.1fx under the %.0fx gate", gate.Value, jobsSpeedupGate)
	}
	return a, nil
}
