package jobs

import (
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// redBuckets are the duration histogram bounds in seconds, the usual
// latency ladder.
var redBuckets = []float64{
	.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// redKey labels one RED series: the endpoint pattern and the job kind
// ("" when the request was not job-scoped).
type redKey struct{ endpoint, kind string }

// redSeries is one (endpoint, kind) series.
type redSeries struct {
	count    uint64
	errors   uint64
	sum      float64
	buckets  []uint64       // len(redBuckets)+1, last is +Inf
	exemplar []trace.SpanID // per finite bucket: last span that landed there
}

// redMetrics aggregates the jobs API's RED metrics (rate, errors,
// duration) per endpoint and job kind. Each observation carries the
// request's root span ID, which sticks to the histogram bucket it lands
// in as an exemplar — so a slow bucket on /metrics links to a concrete
// trace. Safe for concurrent use: every request goroutine observes.
type redMetrics struct {
	mu     sync.Mutex
	series map[redKey]*redSeries
}

func newREDMetrics() *redMetrics { return &redMetrics{series: make(map[redKey]*redSeries)} }

// Observe records one request: endpoint pattern, job kind ("" when
// not job-scoped), HTTP status, duration, and the root span ID as the
// bucket exemplar (zero when the request had no trace).
func (r *redMetrics) Observe(endpoint, kind string, status int, d time.Duration, ex trace.SpanID) {
	sec := d.Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	k := redKey{endpoint, kind}
	s := r.series[k]
	if s == nil {
		s = &redSeries{
			buckets:  make([]uint64, len(redBuckets)+1),
			exemplar: make([]trace.SpanID, len(redBuckets)),
		}
		r.series[k] = s
	}
	s.count++
	s.sum += sec
	if status >= 500 {
		s.errors++
	}
	b := sort.SearchFloat64s(redBuckets, sec)
	s.buckets[b]++
	if b < len(redBuckets) && ex != 0 {
		s.exemplar[b] = ex
	}
}

// Snapshot freezes the collector as labelled snapshot series —
// eandroid_jobs_requests_total, eandroid_jobs_errors_total and the
// eandroid_jobs_duration_seconds histogram with span exemplars — for
// the obsv server's /metrics (a metrics source, like Manager.Snapshot).
func (r *redMetrics) Snapshot() *telemetry.Snapshot {
	s := &telemetry.Snapshot{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.series {
		labels := []telemetry.Label{{Name: "endpoint", Value: k.endpoint}}
		if k.kind != "" {
			labels = append(labels, telemetry.Label{Name: "kind", Value: k.kind})
		}
		exemplars := make([]string, len(v.exemplar))
		for i, id := range v.exemplar {
			if id != 0 {
				exemplars[i] = id.String()
			}
		}
		s.Counters = append(s.Counters,
			telemetry.CounterSnapshot{Name: "eandroid_jobs_requests_total", Labels: labels, Value: float64(v.count)},
			telemetry.CounterSnapshot{Name: "eandroid_jobs_errors_total", Labels: labels, Value: float64(v.errors)})
		s.Histograms = append(s.Histograms, telemetry.HistogramSnapshot{
			Name:      "eandroid_jobs_duration_seconds",
			Labels:    labels,
			Count:     v.count,
			Sum:       v.sum,
			Bounds:    append([]float64(nil), redBuckets...),
			Counts:    append([]uint64(nil), v.buckets...),
			Exemplars: exemplars,
		})
	}
	s.Sort()
	return s
}
