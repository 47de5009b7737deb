package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obsv"
	"repro/internal/trace"
)

// maxSpecBytes bounds a POST /jobs body; a job spec is a handful of
// scalar fields, so anything near this limit is garbage.
const maxSpecBytes = 1 << 20

// redInfo carries per-request RED annotations (job kind, exemplar
// span) from a handler back to the observing middleware via context.
type redInfo struct {
	kind string
	ex   trace.SpanID
}

type redCtxKey struct{}

// annotate fills the request's RED info, if the middleware installed
// one.
func annotate(r *http.Request, kind string, ex trace.SpanID) {
	if info, ok := r.Context().Value(redCtxKey{}).(*redInfo); ok {
		info.kind = kind
		info.ex = ex
	}
}

// statusWriter captures the response status for RED observation. It
// forwards Flush so SSE streaming keeps working under the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observe wraps a handler with RED collection: one rate/error/duration
// observation per request under the endpoint's pattern label, with the
// handler's annotations (job kind, exemplar span ID) attached.
func observe(m *Manager, endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		info := &redInfo{}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r.WithContext(context.WithValue(r.Context(), redCtxKey{}, info)))
		m.red.Observe(endpoint, info.kind, sw.code, time.Since(start), info.ex)
	}
}

// Register mounts the jobs API onto mux using Go 1.22 method+wildcard
// patterns:
//
//	POST   /jobs                      submit a spec; 200 cached, 202 queued, 429 full
//	GET    /jobs                      list all jobs
//	GET    /jobs/{id}                 one job's status
//	POST   /jobs/{id}/cancel          cancel (also DELETE /jobs/{id})
//	GET    /jobs/{id}/events          SSE progress stream
//	GET    /jobs/{id}/artifacts       sorted artifact name list
//	GET    /jobs/{id}/artifacts/{name...}  one artifact's bytes
func Register(mux *http.ServeMux, m *Manager) {
	mux.HandleFunc("POST /jobs", observe(m, "POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
		if err := json.NewDecoder(body).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad spec: %v", err))
			return
		}
		// Only a job kind becomes a label: any other string a client
		// sends would add a series to /metrics for the daemon's life.
		switch spec.Kind {
		case KindScenario, KindFleet, KindCorpus:
			annotate(r, spec.Kind, 0)
		}
		j, err := m.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			// Explicit backpressure: the queue is bounded, the client
			// retries, the server never buffers unbounded work. The
			// hint is computed from queue depth × the rolling mean job
			// wall time, not a hardcoded constant.
			w.Header().Set("Retry-After", strconv.Itoa(m.RetryAfter()))
			httpError(w, http.StatusTooManyRequests, err.Error())
			return
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		annotate(r, j.Spec.Kind, j.tr.Root())
		code := http.StatusAccepted
		if j.Status().Cached {
			code = http.StatusOK
		}
		writeJSON(w, code, j.Status())
	}))

	mux.HandleFunc("GET /jobs", observe(m, "GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		list := m.List()
		out := make([]Status, len(list))
		for i, j := range list {
			out[i] = j.Status()
		}
		writeJSON(w, http.StatusOK, out)
	}))

	mux.HandleFunc("GET /jobs/{id}", observe(m, "GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		annotate(r, j.Spec.Kind, j.tr.Root())
		writeJSON(w, http.StatusOK, j.Status())
	}))

	cancel := func(w http.ResponseWriter, r *http.Request) {
		if !m.Cancel(r.PathValue("id")) {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}
	mux.HandleFunc("POST /jobs/{id}/cancel", observe(m, "POST /jobs/{id}/cancel", cancel))
	mux.HandleFunc("DELETE /jobs/{id}", observe(m, "DELETE /jobs/{id}", cancel))

	mux.HandleFunc("GET /jobs/{id}/events", observe(m, "GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		annotate(r, j.Spec.Kind, j.tr.Root())
		j.events.Serve(w, r, func() []string {
			j.mu.Lock()
			defer j.mu.Unlock()
			return []string{j.stateFrameLocked()}
		})
	}))

	mux.HandleFunc("GET /jobs/{id}/artifacts", observe(m, "GET /jobs/{id}/artifacts", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		arts, ready := j.Artifacts()
		if !ready {
			httpError(w, http.StatusConflict, "job not done")
			return
		}
		annotate(r, j.Spec.Kind, j.tr.Root())
		writeJSON(w, http.StatusOK, arts.Names())
	}))

	mux.HandleFunc("GET /jobs/{id}/artifacts/{name...}", observe(m, "GET /jobs/{id}/artifacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		arts, ready := j.Artifacts()
		if !ready {
			httpError(w, http.StatusConflict, "job not done")
			return
		}
		name := r.PathValue("name")
		b, ok := arts.Files[name]
		if !ok {
			httpError(w, http.StatusNotFound, "no such artifact")
			return
		}
		annotate(r, j.Spec.Kind, j.tr.Root())
		w.Header().Set("Content-Type", contentType(name))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
	}))
}

// Attach wires a manager into an obsv server: jobs routes on its mux,
// manager counters and the RED request series merged into its
// /metrics, and broker shutdown hooked so Shutdown does not wait out
// live job streams.
func Attach(srv *obsv.Server, m *Manager) {
	mux := http.NewServeMux()
	Register(mux, m)
	srv.Mount("/jobs", mux)
	srv.Mount("/jobs/", mux)
	srv.AddMetricsSource(m.Metrics)
	srv.AddMetricsSource(m.red.Metrics)
	m.SetTracePublisher(srv.PublishTrace)
	srv.OnShutdown(m.Close)
}

func contentType(name string) string {
	switch {
	case strings.HasSuffix(name, ".json"):
		return "application/json"
	case strings.HasSuffix(name, ".html"):
		return "text/html; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
