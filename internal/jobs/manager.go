package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrQueueFull is returned by Submit when the bounded queue has no
// room. The HTTP layer translates it to 429 + Retry-After: overload is
// pushed back to the client, never absorbed as unbounded memory.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// Options configures a Manager. Zero fields take the defaults.
type Options struct {
	// Runners is the worker-pool size: how many jobs execute
	// concurrently. Default 2 — each job already parallelizes across
	// fleet workers, so a small runner pool saturates the machine.
	Runners int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it fail with ErrQueueFull. Default 16.
	QueueDepth int
	// CacheBytes is the artifact cache's byte budget. Default 64 MiB.
	CacheBytes int64
	// Limits are the per-job resource bounds.
	Limits Limits
	// TraceSampleRate head-samples 1 in N devices for engine-phase
	// tracing (1 = every device, 0 = trace.DefaultSampleRate). It is
	// server configuration, uniform across jobs, so cached artifacts
	// stay consistent with fresh runs on the same server.
	TraceSampleRate int
}

// Default manager options.
const (
	DefaultRunners    = 2
	DefaultQueueDepth = 16
	DefaultCacheBytes = 64 << 20
)

func (o *Options) fill() {
	if o.Runners <= 0 {
		o.Runners = DefaultRunners
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = DefaultCacheBytes
	}
	o.Limits.fill()
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one submitted simulation. All mutable fields are guarded by
// mu; Done() exposes completion to waiters without polling.
type Job struct {
	// ID is the manager-assigned handle ("j1", "j2", ...).
	ID string
	// Key is the spec's content address.
	Key string
	// Spec is the normalized request.
	Spec Spec

	events *obsv.SSEBroker
	doneCh chan struct{}
	cancel context.CancelFunc
	jctx   context.Context

	// tr is the job's causal tracer, rooted at the spec's content
	// address; queuedAt anchors the queued lifecycle stage.
	tr       *trace.Tracer
	queuedAt time.Time

	mu       sync.Mutex
	state    string
	cached   bool
	errMsg   string
	done     int
	total    int
	artifact Artifacts
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Trace returns the job's causal tracer.
func (j *Job) Trace() *trace.Tracer { return j.tr }

// Events is the job's SSE broker; progress and state frames are
// published here.
func (j *Job) Events() *obsv.SSEBroker { return j.events }

// Status is the JSON view of a job served at /jobs/{id}.
type Status struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Spec   Spec   `json:"spec"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	// Trace is the job's root span ID (hex) — the handle /metrics
	// exemplars and the trace.json artifact share.
	Trace     string   `json:"trace,omitempty"`
	Error     string   `json:"error,omitempty"`
	Done      int      `json:"done"`
	Total     int      `json:"total"`
	Artifacts []string `json:"artifacts,omitempty"`
}

// Status snapshots the job under its lock.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:        j.ID,
		Key:       j.Key,
		Spec:      j.Spec,
		State:     j.state,
		Cached:    j.cached,
		Trace:     j.tr.Root().String(),
		Error:     j.errMsg,
		Done:      j.done,
		Total:     j.total,
		Artifacts: j.artifact.Names(),
	}
}

// Artifacts returns the job's outputs and whether they are ready.
func (j *Job) Artifacts() (Artifacts, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return Artifacts{}, false
	}
	return j.artifact, true
}

// stateFrame renders the job's current status as an SSE frame; called
// with j.mu held by publishState.
func (j *Job) stateFrameLocked() string {
	data := fmt.Sprintf(`{"id":%q,"state":%q,"cached":%v,"done":%d,"total":%d}`,
		j.ID, j.state, j.cached, j.done, j.total)
	return obsv.SSEFrame("job", data)
}

// publishState pushes a state frame to the job's SSE subscribers.
func (j *Job) publishState() {
	j.mu.Lock()
	frame := j.stateFrameLocked()
	j.mu.Unlock()
	j.events.Publish(frame)
}

// Manager is the control plane: a bounded queue feeding a fixed runner
// pool, a content-addressed result cache, and per-job SSE brokers. It
// keeps its own counters under mu and builds a fresh telemetry.Metrics
// from them per scrape (Metrics), since a registry has no lock of its
// own.
type Manager struct {
	opts Options
	red  *redMetrics

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu     sync.Mutex
	seq    int
	jobs   map[string]*Job
	order  []string // submission order, for stable listings
	queue  chan *Job
	closed bool
	cache  *Cache

	submitted int64
	completed int64
	failed    int64
	canceled  int64
	rejected  int64
	running   int

	// Watchdog window counters summed across completed fleet jobs —
	// the per-device Watchdog.Stats() surfaced on /metrics.
	wdStats obsv.WindowStats

	// pubTrace, when set (Attach wires it to obsv.Server.PublishTrace),
	// receives every finished job's trace summary.
	pubTrace func(*trace.Summary)

	// wallHist is a ring of the most recent executed jobs' wall times;
	// RetryAfter turns its rolling mean into an honest 429 hint.
	wallHist [wallHistLen]time.Duration
	wallN    int // total recorded; min(wallN, wallHistLen) are valid
}

// wallHistLen bounds the wall-time history ring.
const wallHistLen = 32

// NewManager starts a manager with opts.Runners worker goroutines.
func NewManager(opts Options) *Manager {
	opts.fill()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		red:        newREDMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, opts.QueueDepth),
		cache:      NewCache(opts.CacheBytes),
	}
	for i := 0; i < opts.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m
}

// Limits exposes the effective per-job bounds.
func (m *Manager) Limits() Limits { return m.opts.Limits }

// SetTracePublisher wires the sink for finished jobs' trace summaries
// (Attach points it at obsv.Server.PublishTrace). Call before traffic.
func (m *Manager) SetTracePublisher(fn func(*trace.Summary)) {
	m.mu.Lock()
	m.pubTrace = fn
	m.mu.Unlock()
}

// traceConfig is the per-job tracer configuration from the manager's
// options.
func (m *Manager) traceConfig() trace.Config {
	return trace.Config{SampleRate: m.opts.TraceSampleRate}
}

// Submit normalizes the spec and either returns an already-done job
// from the cache (Cached=true, artifacts ready) or enqueues a fresh
// run. A full queue fails fast with ErrQueueFull.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	t0 := time.Now()
	norm, err := spec.Normalize(m.opts.Limits)
	if err != nil {
		return nil, err
	}
	key := norm.Key()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.seq++
	jctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		ID:     fmt.Sprintf("j%d", m.seq),
		Key:    key,
		Spec:   norm,
		events: obsv.NewSSEBroker(),
		doneCh: make(chan struct{}),
		cancel: cancel,
		jctx:   jctx,
		// The root span is named for the canonical submission path
		// regardless of origin (HTTP or direct Submit), so identical
		// specs yield identical trace artifacts.
		tr:       trace.New(key, "POST /jobs", m.traceConfig()),
		queuedAt: t0,
		state:    StateQueued,
		total:    norm.totalDevices(),
	}
	j.tr.SetJobName(fmt.Sprintf("%s %s", norm.Kind, norm.Cell))
	if arts, ok := m.cache.get(key); ok {
		// Cache hit: the job is born terminal with the original bytes.
		j.state = StateDone
		j.cached = true
		j.done = j.total
		j.artifact = arts
		close(j.doneCh)
		cancel()
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		m.submitted++
		m.completed++
		j.tr.AddStage("cache-hit", time.Since(t0))
		j.tr.Finish()
		m.publishTraceLocked(j, StateDone)
		return j, nil
	}
	select {
	case m.queue <- j:
	default:
		m.seq-- // not admitted; don't burn the ID
		cancel()
		m.rejected++
		return nil, ErrQueueFull
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.submitted++
	return j, nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns all jobs in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel cancels a job's context. A queued job is skipped when a
// runner picks it up; a running job unwinds at the fleet runner's next
// cancellation check.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// noteWall records one executed job's wall-clock time in the rolling
// history.
func (m *Manager) noteWall(d time.Duration) {
	m.mu.Lock()
	m.wallHist[m.wallN%wallHistLen] = d
	m.wallN++
	m.mu.Unlock()
}

// RetryAfter estimates, in whole seconds, how long a client should
// wait after a 429 before resubmitting: the current queue depth times
// the rolling mean job wall time, divided across the runner pool.
// Floor 1 s (the pre-computed hint never vanishes); ceiling the
// per-job wall deadline (a single slot must free up within MaxWall).
func (m *Manager) RetryAfter() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.wallN
	if n > wallHistLen {
		n = wallHistLen
	}
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += m.wallHist[i]
	}
	var mean time.Duration
	if n > 0 {
		mean = sum / time.Duration(n)
	}
	return retryAfterSecs(len(m.queue), m.opts.Runners, mean, m.opts.Limits.MaxWall)
}

// publishTraceLocked freezes j's tracer into a live summary and hands
// it to the trace publisher; called with m.mu held.
func (m *Manager) publishTraceLocked(j *Job, state string) {
	if m.pubTrace == nil {
		return
	}
	sum := j.tr.Summarize(state)
	sum.JobID, sum.Key = j.ID, j.Key
	sum.Cached = j.cached
	m.pubTrace(sum)
}

// noteWatchdog folds one completed fleet job's summed per-device
// window counters into the manager's running totals.
func (m *Manager) noteWatchdog(st obsv.WindowStats) {
	m.mu.Lock()
	m.wdStats.Add(st)
	m.mu.Unlock()
}

// retryAfterSecs is the pure Retry-After computation: ceil(depth ×
// mean / runners) in seconds, clamped to [1, ceil(maxWall)]. With no
// history (mean 0) there is nothing to extrapolate and the old
// constant 1 s is the only honest answer.
func retryAfterSecs(depth, runners int, mean, maxWall time.Duration) int {
	if mean <= 0 {
		return 1
	}
	if runners < 1 {
		runners = 1
	}
	wait := time.Duration(depth) * mean / time.Duration(runners)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if ceil := int((maxWall + time.Second - 1) / time.Second); ceil >= 1 && secs > ceil {
		secs = ceil
	}
	return secs
}

// CacheStats returns the result cache's counters.
func (m *Manager) CacheStats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.stats()
}

// Metrics builds a fresh registry of the control plane's counters and
// gauges, suitable for adding into an obsv server's /metrics via
// AddMetricsSource.
func (m *Manager) Metrics() *telemetry.Metrics {
	m.mu.Lock()
	cs := m.cache.stats()
	submitted, completed := m.submitted, m.completed
	failed, canceled, rejected := m.failed, m.canceled, m.rejected
	depth, running := len(m.queue), m.running
	wd := m.wdStats
	var dropped int64
	for _, id := range m.order {
		dropped += m.jobs[id].events.Dropped()
	}
	m.mu.Unlock()

	t := telemetry.NewMetrics()
	t.Counter("jobs.submitted").Add(float64(submitted))
	t.Counter("jobs.completed").Add(float64(completed))
	t.Counter("jobs.failed").Add(float64(failed))
	t.Counter("jobs.canceled").Add(float64(canceled))
	t.Counter("jobs.rejected").Add(float64(rejected))
	t.Counter("jobs.cache.hits").Add(float64(cs.Hits))
	t.Counter("jobs.cache.misses").Add(float64(cs.Misses))
	t.Counter("jobs.cache.evictions").Add(float64(cs.Evictions))
	t.Counter("jobs.sse.dropped_subscribers").Add(float64(dropped))
	t.Counter("jobs.watchdog.windows_total").Add(float64(wd.Total))
	t.Counter("jobs.watchdog.windows_interactive").Add(float64(wd.Interactive))
	t.Counter("jobs.watchdog.windows_judged").Add(float64(wd.Judged))
	t.Counter("jobs.watchdog.windows_flagged").Add(float64(wd.Flagged))
	t.Gauge("jobs.queue.depth").Set(float64(depth))
	t.Gauge("jobs.running").Set(float64(running))
	t.Gauge("jobs.cache.bytes").Set(float64(cs.Bytes))
	t.Gauge("jobs.cache.entries").Set(float64(cs.Entries))
	return t
}

// Close stops the manager: no new submissions, queued jobs are
// cancelled, runners drain and exit, every job's SSE broker closes.
// Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	m.baseCancel()
	m.wg.Wait()

	m.mu.Lock()
	for _, id := range m.order {
		m.jobs[id].events.CloseAll()
	}
	m.mu.Unlock()
}

// runner is one worker goroutine: it drains the queue until Close.
func (m *Manager) runner() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// finish moves a job to a terminal state, caches successful artifacts,
// publishes the final SSE frame and releases waiters.
func (m *Manager) finish(j *Job, arts Artifacts, runErr error) {
	state := StateDone
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			state = StateCanceled
		} else {
			state = StateFailed
		}
	}

	j.mu.Lock()
	j.state = state
	if runErr != nil {
		j.errMsg = runErr.Error()
	} else {
		j.artifact = arts
	}
	frame := j.stateFrameLocked()
	j.mu.Unlock()

	j.tr.Finish()

	m.mu.Lock()
	m.running--
	switch state {
	case StateDone:
		m.cache.put(j.Key, arts)
		m.completed++
	case StateCanceled:
		m.canceled++
	case StateFailed:
		m.failed++
	}
	m.publishTraceLocked(j, state)
	m.mu.Unlock()

	j.events.Publish(frame)
	j.events.CloseAll()
	close(j.doneCh)
	j.cancel()
}

// runJob executes one job under its wall-clock deadline.
func (m *Manager) runJob(j *Job) {
	if err := j.jctx.Err(); err != nil {
		// Cancelled while queued: never ran.
		m.mu.Lock()
		m.running++ // finish decrements
		m.mu.Unlock()
		m.finish(j, Artifacts{}, context.Canceled)
		return
	}
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	j.tr.AddStage("queued", time.Since(j.queuedAt))
	j.publishState()

	ctx, cancel := context.WithTimeout(j.jctx, m.opts.Limits.MaxWall)
	wallStart := time.Now()
	arts, err := m.execute(ctx, j)
	m.noteWall(time.Since(wallStart))
	j.tr.AddStage("running", time.Since(wallStart))
	cancel()
	if err == nil && j.jctx.Err() != nil {
		// The run raced a cancellation to the finish line; honor the
		// client's intent.
		err = context.Canceled
	}
	m.finish(j, arts, err)
}
