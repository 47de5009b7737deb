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
	"sync"
	"sync/atomic"
	"syscall"
	"time"

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
//	/metrics          Prometheus text exposition of the server's own
//	                  series merged with every registered source's
//	/healthz, /readyz liveness / readiness
//	/debug/pprof/     the standard Go profiling endpoints
//	/trace            recent trace summaries; /trace/events is their SSE feed
//
// plus whatever subsystems Mount (the jobs control plane adds /jobs).
// Handlers never touch a running engine: /metrics calls the registered
// sources, each of which hands back a fresh registry, and /trace reads
// summaries of operations that have already finished — which is what
// keeps live serving compatible with the simulator's determinism.
type Server struct {
	mux *http.ServeMux
	srv *http.Server

	// serving is true from Start until Shutdown begins; /readyz
	// reports it.
	serving atomic.Bool

	traceSSE *SSEBroker
	traceMu  sync.Mutex
	traces   []*trace.Summary

	// start anchors the process uptime gauge.
	start time.Time

	// srcMu guards the extra metrics sources and shutdown hooks that
	// mounted subsystems (the jobs control plane) register.
	srcMu    sync.Mutex
	sources  []func() *telemetry.Metrics
	onClose  []func()
	hooksRan bool
}

// NewServer builds a server with all routes registered; nothing listens
// until Start.
func NewServer() *Server {
	s := &Server{
		mux:      http.NewServeMux(),
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
		if !s.serving.Load() {
			http.Error(w, "not serving", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/trace/events", func(w http.ResponseWriter, r *http.Request) {
		s.traceSSE.Serve(w, r, s.traceStateFrame)
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

// Mount registers an extra handler on the server's mux under pattern
// (Go 1.22 patterns: methods and wildcards allowed). The jobs control
// plane mounts its /jobs routes here so one server carries both planes.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// AddMetricsSource registers a metrics source added into every
// /metrics response alongside the server's own series — labelled
// series (the jobs RED histograms with exemplars) included. Sources
// are called on each scrape, must be safe for concurrent use, and hand
// back a registry nothing else writes while the scrape reads it (a
// fresh one per call).
func (s *Server) AddMetricsSource(fn func() *telemetry.Metrics) {
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
// serves in a background goroutine; /readyz answers 200 from here until
// Shutdown begins. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.serving.Store(true)
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown stops the server, waiting for in-flight requests up to ctx's
// deadline. Readiness drops first, then the shutdown hooks run and the
// SSE streams close, so Shutdown does not wait out their subscribers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.serving.Store(false)
	s.runShutdownHooks()
	s.traceSSE.CloseAll()
	return s.srv.Shutdown(ctx)
}

// AwaitShutdown blocks until SIGINT/SIGTERM arrives (or stop, when
// non-nil, closes — the daemon's tests use it in place of Ctrl-C),
// then shuts the started server down with a short grace period.
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

// PublishTrace records one finished operation's trace summary and
// pushes it on the /trace/events SSE channel. This is the live,
// wall-clock side of the tracing split — the deterministic span tree
// ships in the job's trace.json artifact.
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
  /trace            recent trace summaries (JSON); /trace/events (SSE)
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.srcMu.Lock()
	sources := s.sources
	s.srcMu.Unlock()
	m := s.ownMetrics()
	for _, fn := range sources {
		if err := m.Add(fn()); err != nil {
			http.Error(w, "merge metrics: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, m)
}

// ownMetrics is the server's self-instrumentation: the trace SSE
// broker's stuck-subscriber drop count and the process hygiene gauges
// (build identity, uptime, goroutines, heap in use), always present on
// /metrics so a misbehaving scraper or a leak is visible from any other
// scraper. Build identity is a labelled constant-1 gauge. Each scrape
// builds a fresh registry, which the sources are then added into.
func (s *Server) ownMetrics() *telemetry.Metrics {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := telemetry.NewMetrics()
	m.Counter("obsv.sse.dropped_subscribers").Add(float64(s.traceSSE.Dropped()))
	m.Gauge("eandroid_process_uptime_seconds").Set(float64(time.Since(s.start).Milliseconds()) / 1000)
	m.Gauge("eandroid_process_goroutines").Set(float64(runtime.NumGoroutine()))
	m.Gauge("eandroid_process_heap_inuse_bytes").Set(float64(ms.HeapInuse))
	m.Gauge("eandroid_build_info",
		telemetry.Label{Name: "version", Value: Version}, telemetry.Label{Name: "go", Value: runtime.Version()}).Set(1)
	return m
}

// traceList is the /trace payload: a copy of the retained summaries,
// oldest first.
type traceList struct {
	Traces []*trace.Summary `json:"traces"`
}

func (s *Server) traceState() traceList {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	out := make([]*trace.Summary, len(s.traces))
	copy(out, s.traces)
	return traceList{out}
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.traceState())
}

// traceStateFrame replays the retained trace summaries as the initial
// /trace/events frame.
func (s *Server) traceStateFrame() []string {
	data, err := json.Marshal(s.traceState())
	if err != nil {
		return nil
	}
	return []string{SSEFrame("state", string(data))}
}
