package jobs

import (
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

// redMetrics aggregates the jobs API's RED metrics (rate, errors,
// duration) per endpoint and job kind, as labelled series of one
// registry: eandroid_jobs_requests_total, eandroid_jobs_errors_total
// and the eandroid_jobs_duration_seconds histogram. Each observation
// carries the request's root span ID, which sticks to the histogram
// bucket it lands in as an exemplar — so a slow bucket on /metrics
// links to a concrete trace. Safe for concurrent use: every request
// goroutine observes, under mu.
type redMetrics struct {
	mu sync.Mutex
	m  *telemetry.Metrics
}

func newREDMetrics() *redMetrics { return &redMetrics{m: telemetry.NewMetrics()} }

// Observe records one request: endpoint pattern, job kind ("" when
// not job-scoped), HTTP status, duration, and the root span ID as the
// bucket exemplar (zero when the request had no trace).
func (r *redMetrics) Observe(endpoint, kind string, status int, d time.Duration, ex trace.SpanID) {
	labels := []telemetry.Label{{Name: "endpoint", Value: endpoint}, {Name: "kind", Value: kind}}
	if kind == "" {
		labels = labels[:1]
	}
	var span string
	if ex != 0 {
		span = ex.String()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.Counter("eandroid_jobs_requests_total", labels...).Inc()
	// Registered on a series' first request, so every series reports
	// its errors, zero included.
	errs := r.m.Counter("eandroid_jobs_errors_total", labels...)
	if status >= 500 {
		errs.Inc()
	}
	r.m.Histogram("eandroid_jobs_duration_seconds", redBuckets, labels...).ObserveExemplar(d.Seconds(), span)
}

// Metrics copies the collector into a fresh registry for the obsv
// server's /metrics (a metrics source, like Manager.Metrics).
func (r *redMetrics) Metrics() *telemetry.Metrics {
	out := telemetry.NewMetrics()
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = out.Add(r.m) // an empty registry takes any series
	return out
}
