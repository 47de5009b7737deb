package obsv

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Version labels the eandroid_build_info metric; release builds may
// override it via -ldflags "-X repro/internal/obsv.Version=...".
var Version = "dev"

// traceRing bounds how many finished trace summaries /trace retains
// (newest last; older summaries roll off).
const traceRing = 32

// Server is the live observability plane: a stdlib net/http server
// exposing
//
//	/metrics          Prometheus text exposition of the latest snapshot
//	                  merged with the server's own and every source's series
//	/healthz, /readyz liveness / readiness
//	/debug/pprof/     the standard Go profiling endpoints
//	/fleet            JSON fleet progress; /fleet/events is its SSE feed
//	/watchdog         JSON findings; /watchdog/events is its SSE feed
//	/flame            HTML energy flame report; /flame.txt collapsed stacks
//
// The simulation side stays single-goroutine: it publishes immutable
// values (snapshots, findings, flames) through atomic pointers and a
// mutex-guarded broker, and HTTP handlers only ever read those
// published values — the engine itself is never touched from a request
// goroutine, which is what keeps live serving compatible with the
// simulator's determinism.
type Server struct {
	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener

	snap  atomic.Pointer[telemetry.Snapshot]
	flame atomic.Pointer[Flame]
	ready atomic.Bool

	watchMu  sync.Mutex
	findings []Finding

	watchSSE *SSEBroker
	fleetSSE *SSEBroker
	traceSSE *SSEBroker

	traceMu sync.Mutex
	traces  []*trace.Summary

	// wstats is the latest watchdog window-counter publication,
	// rendered as gauges on /metrics.
	wstats atomic.Pointer[WindowStats]

	// start anchors the process uptime gauge.
	start time.Time

	trackMu sync.Mutex
	tracker *FleetTracker

	// srcMu guards the extra metrics sources and shutdown hooks that
	// mounted subsystems (the jobs control plane) register.
	srcMu    sync.Mutex
	sources  []func() *telemetry.Snapshot
	onClose  []func()
	hooksRan bool
}

// NewServer builds a server with all routes registered; nothing listens
// until Start.
func NewServer() *Server {
	s := &Server{
		mux:      http.NewServeMux(),
		watchSSE: NewSSEBroker(),
		fleetSSE: NewSSEBroker(),
		traceSSE: NewSSEBroker(),
		start:    time.Now(),
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/fleet", s.handleFleet)
	s.mux.HandleFunc("/fleet/events", func(w http.ResponseWriter, r *http.Request) {
		s.fleetSSE.Serve(w, r, s.fleetStateFrame())
	})
	s.mux.HandleFunc("/watchdog", s.handleWatchdog)
	s.mux.HandleFunc("/watchdog/events", func(w http.ResponseWriter, r *http.Request) {
		s.watchSSE.Serve(w, r, s.watchdogStateFrame())
	})
	s.mux.HandleFunc("/flame", s.handleFlame)
	s.mux.HandleFunc("/flame.txt", s.handleFlameTxt)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/trace/events", func(w http.ResponseWriter, r *http.Request) {
		s.traceSSE.Serve(w, r, s.traceStateFrame())
	})
	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers (the slowloris hole an unset value leaves open);
	// IdleTimeout reclaims keep-alive connections that went quiet. SSE
	// streams are unaffected: both timers apply between requests, not to
	// a streaming response body.
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return s
}

// Handler exposes the route mux (for tests driving it without a
// listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Mount registers an extra handler on the server's mux under pattern
// (Go 1.22 patterns: methods and wildcards allowed). The jobs control
// plane mounts its /jobs routes here so one server carries both planes.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// AddMetricsSource registers a snapshot source merged into every
// /metrics response alongside the published snapshot — labelled
// series (the jobs RED histograms with exemplars) included. Sources
// are called on each scrape and must be safe for concurrent use.
func (s *Server) AddMetricsSource(fn func() *telemetry.Snapshot) {
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	s.sources = append(s.sources, fn)
}

// OnShutdown registers a hook run at the start of Shutdown, before the
// HTTP server begins waiting for in-flight requests. Mounted subsystems
// use it to close their own SSE brokers so lingering streams end
// promptly instead of holding Shutdown to its deadline.
func (s *Server) OnShutdown(fn func()) {
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	s.onClose = append(s.onClose, fn)
}

// runShutdownHooks runs the registered hooks exactly once.
func (s *Server) runShutdownHooks() {
	s.srcMu.Lock()
	hooks := s.onClose
	ran := s.hooksRan
	s.hooksRan = true
	s.srcMu.Unlock()
	if ran {
		return
	}
	for _, fn := range hooks {
		fn()
	}
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown stops the server, waiting for in-flight requests up to ctx's
// deadline. SSE streams are closed first so Shutdown does not wait out
// their subscribers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.runShutdownHooks()
	s.watchSSE.CloseAll()
	s.fleetSSE.CloseAll()
	s.traceSSE.CloseAll()
	return s.srv.Shutdown(ctx)
}

// AwaitShutdown blocks until SIGINT/SIGTERM arrives (or stop, when
// non-nil, closes — CLI tests use it to end a -serve wait immediately),
// then shuts the started server down with a short grace period. This is
// the CLIs' -serve tail: start early, publish after the run, then hand
// the process to the operator until Ctrl-C.
func (s *Server) AwaitShutdown(stop <-chan struct{}) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// PublishSnapshot makes snap the /metrics payload. Call it from the
// simulation goroutine at safe points (between runs, after flushes);
// the handler only ever reads whole published snapshots.
func (s *Server) PublishSnapshot(snap *telemetry.Snapshot) {
	if snap == nil {
		return
	}
	s.snap.Store(snap)
	s.ready.Store(true)
}

// PublishFlame makes f the /flame payload.
func (s *Server) PublishFlame(f *Flame) {
	if f == nil {
		return
	}
	s.flame.Store(f)
}

// PublishFinding records a watchdog finding and pushes it on the
// /watchdog/events SSE channel. Wire it with wd.Subscribe(srv.PublishFinding).
func (s *Server) PublishFinding(f Finding) {
	s.watchMu.Lock()
	s.findings = append(s.findings, f)
	s.watchMu.Unlock()
	if data, err := json.Marshal(f); err == nil {
		s.watchSSE.Publish(SSEFrame("finding", string(data)))
	}
}

// PublishTrace records one finished operation's trace summary and
// pushes it on the /trace/events SSE channel. Like fleet progress this
// is the live, wall-clock side of the tracing split — the
// deterministic span tree ships in the job's trace.json artifact.
func (s *Server) PublishTrace(sum *trace.Summary) {
	if sum == nil {
		return
	}
	s.traceMu.Lock()
	s.traces = append(s.traces, sum)
	if len(s.traces) > traceRing {
		s.traces = s.traces[len(s.traces)-traceRing:]
	}
	s.traceMu.Unlock()
	if data, err := json.Marshal(sum); err == nil {
		s.traceSSE.Publish(SSEFrame("trace", string(data)))
	}
}

// PublishWindowStats makes st the watchdog window-counter gauges on
// /metrics (obsv.watchdog.windows_*). Call it whenever the counters
// advance — typically alongside PublishSnapshot, or per finding via
// wd.Stats().
func (s *Server) PublishWindowStats(st WindowStats) {
	s.wstats.Store(&st)
}

// TrackFleet installs a progress tracker for a fleet of total devices
// and returns the hook to place in fleet.Spec.Progress. Each call
// resets the tracked state (one fleet run at a time).
func (s *Server) TrackFleet(total int) func(fleet.Progress) {
	t := NewFleetTracker(total)
	s.trackMu.Lock()
	s.tracker = t
	s.trackMu.Unlock()
	hook := t.Hook()
	return func(p fleet.Progress) {
		hook(p)
		if data, err := json.Marshal(p); err == nil {
			s.fleetSSE.Publish(SSEFrame("progress", string(data)))
		}
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `e-android observability plane
  /metrics          prometheus text exposition
  /healthz /readyz  liveness, readiness
  /debug/pprof/     go profiling
  /fleet            fleet progress (JSON); /fleet/events (SSE)
  /watchdog         drain-anomaly findings (JSON); /watchdog/events (SSE)
  /flame            energy flame graph (HTML); /flame.txt (collapsed stacks)
  /trace            recent trace summaries (JSON); /trace/events (SSE)
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.srcMu.Lock()
	sources := s.sources
	s.srcMu.Unlock()
	snaps := []*telemetry.Snapshot{s.snap.Load(), s.ownMetrics()}
	for _, fn := range sources {
		snaps = append(snaps, fn())
	}
	merged, err := telemetry.MergeSnapshots(snaps)
	if err != nil {
		http.Error(w, "merge metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, merged)
}

// ownMetrics is the server's self-instrumentation: the SSE brokers'
// stuck-subscriber drop counts, the latest watchdog window counters,
// and the process hygiene gauges (build identity, uptime, goroutines,
// heap in use), always present on /metrics so a misbehaving scraper
// or a leak is visible from any other scraper.
func (s *Server) ownMetrics() *telemetry.Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := telemetry.NewMetrics()
	m.Counter("obsv.sse.dropped_subscribers").Add(
		float64(s.watchSSE.Dropped() + s.fleetSSE.Dropped() + s.traceSSE.Dropped()))
	if st := s.wstats.Load(); st != nil {
		m.Gauge("obsv.watchdog.windows_total").Set(float64(st.Total))
		m.Gauge("obsv.watchdog.windows_interactive").Set(float64(st.Interactive))
		m.Gauge("obsv.watchdog.windows_judged").Set(float64(st.Judged))
		m.Gauge("obsv.watchdog.windows_flagged").Set(float64(st.Flagged))
	}
	m.Gauge("eandroid_process_uptime_seconds").Set(float64(time.Since(s.start).Milliseconds()) / 1000)
	m.Gauge("eandroid_process_goroutines").Set(float64(runtime.NumGoroutine()))
	m.Gauge("eandroid_process_heap_inuse_bytes").Set(float64(ms.HeapInuse))
	snap := m.Snapshot()
	// Build identity is a labelled constant-1 gauge; the registry is
	// label-free, so it joins the snapshot directly.
	snap.Gauges = append(snap.Gauges, telemetry.GaugeSnapshot{
		Name:   "eandroid_build_info",
		Labels: []telemetry.Label{{Name: "version", Value: Version}, {Name: "go", Value: runtime.Version()}},
		Value:  1,
	})
	snap.Sort()
	return snap
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	s.trackMu.Lock()
	t := s.tracker
	s.trackMu.Unlock()
	if t == nil {
		http.Error(w, "no fleet tracked", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(t.State())
}

func (s *Server) handleWatchdog(w http.ResponseWriter, _ *http.Request) {
	s.watchMu.Lock()
	out := make([]Finding, len(s.findings))
	copy(out, s.findings)
	s.watchMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Findings []Finding `json:"findings"`
	}{out})
}

func (s *Server) handleFlame(w http.ResponseWriter, _ *http.Request) {
	f := s.flame.Load()
	if f == nil {
		http.Error(w, "no flame published", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = f.WriteHTML(w, "energy flame graph")
}

func (s *Server) handleFlameTxt(w http.ResponseWriter, _ *http.Request) {
	f := s.flame.Load()
	if f == nil {
		http.Error(w, "no flame published", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = f.WriteCollapsed(w)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.traceMu.Lock()
	out := make([]*trace.Summary, len(s.traces))
	copy(out, s.traces)
	s.traceMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Traces []*trace.Summary `json:"traces"`
	}{out})
}

// traceStateFrame replays the retained trace summaries as the initial
// /trace/events frame.
func (s *Server) traceStateFrame() []string {
	s.traceMu.Lock()
	out := make([]*trace.Summary, len(s.traces))
	copy(out, s.traces)
	s.traceMu.Unlock()
	data, err := json.Marshal(struct {
		Traces []*trace.Summary `json:"traces"`
	}{out})
	if err != nil {
		return nil
	}
	return []string{SSEFrame("state", string(data))}
}

// fleetStateFrame is the initial SSE frame for /fleet/events: the
// current fleet state, so a subscriber always gets one tick
// immediately.
func (s *Server) fleetStateFrame() []string {
	s.trackMu.Lock()
	t := s.tracker
	s.trackMu.Unlock()
	var st any
	if t != nil {
		st = t.State()
	} else {
		st = FleetState{}
	}
	data, err := json.Marshal(st)
	if err != nil {
		return nil
	}
	return []string{SSEFrame("state", string(data))}
}

// watchdogStateFrame replays all findings so far as the initial frame.
func (s *Server) watchdogStateFrame() []string {
	s.watchMu.Lock()
	out := make([]Finding, len(s.findings))
	copy(out, s.findings)
	s.watchMu.Unlock()
	data, err := json.Marshal(struct {
		Findings []Finding `json:"findings"`
	}{out})
	if err != nil {
		return nil
	}
	return []string{SSEFrame("state", string(data))}
}

// FleetState is the /fleet JSON payload.
type FleetState struct {
	Total   int              `json:"total"`
	Done    int              `json:"done"`
	Failed  int              `json:"failed"`
	Devices []fleet.Progress `json:"devices"`
}

// FleetTracker accumulates fleet.Progress ticks. Its hook is safe for
// concurrent calls from fleet workers.
type FleetTracker struct {
	mu      sync.Mutex
	total   int
	devices map[int]fleet.Progress
}

// NewFleetTracker builds a tracker for a fleet of total devices.
func NewFleetTracker(total int) *FleetTracker {
	return &FleetTracker{total: total, devices: make(map[int]fleet.Progress)}
}

// Hook returns the function to install as fleet.Spec.Progress.
func (t *FleetTracker) Hook() func(fleet.Progress) {
	return func(p fleet.Progress) {
		t.mu.Lock()
		t.devices[p.Index] = p
		t.mu.Unlock()
	}
}

// State freezes the tracker: devices sorted by index.
func (t *FleetTracker) State() FleetState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := FleetState{Total: t.total, Done: len(t.devices)}
	st.Devices = make([]fleet.Progress, 0, len(t.devices))
	for _, p := range t.devices {
		st.Devices = append(st.Devices, p)
		if p.Failed {
			st.Failed++
		}
	}
	sort.Slice(st.Devices, func(i, j int) bool { return st.Devices[i].Index < st.Devices[j].Index })
	return st
}
