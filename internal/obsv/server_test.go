package obsv

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// muxStatus serves one GET straight through the server's mux — for
// probing a server that is not listening.
func muxStatus(s *Server, path string) int {
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code
}

// TestServerSmoke is the end-to-end pass the obsv-smoke make target
// mirrors: serve a finished simulation's metrics on an ephemeral port,
// probe every endpoint, read one SSE tick, shut down cleanly.
func TestServerSmoke(t *testing.T) {
	w, err := scenario.NewWorld(device.Config{
		EAndroid:  true,
		Policy:    accounting.BatteryStats,
		Telemetry: telemetry.New(telemetry.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	wd, err := NewWatchdog(w.Dev, WatchdogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()

	srv := NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	// Liveness and readiness are both up as soon as the server serves.
	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, base+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack6WakelockScreen(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	wd.Finish()
	// The run's series reach /metrics the way every series does: as a
	// registered source handing back a registry nothing writes any more.
	reg := w.Dev.Telemetry.Metrics()
	srv.AddMetricsSource(func() *telemetry.Metrics { return reg })

	// /metrics parses as text exposition and carries the anomaly count.
	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	samples := parseProm(t, body)
	if samples["obsv_anomalies"] < 1 {
		t.Fatalf("obsv_anomalies = %v, want >= 1 (attack #6 ran)\n%s", samples["obsv_anomalies"], body)
	}
	if _, ok := samples["eandroid_process_goroutines"]; !ok {
		t.Fatalf("/metrics missing the server's own gauges:\n%s", body)
	}

	// pprof is mounted.
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	// One SSE tick: the initial state frame replays the trace summaries.
	frame := readSSEFrame(t, base+"/trace/events")
	if !strings.HasPrefix(frame, "event: state\ndata: ") || !strings.Contains(frame, `"traces":`) {
		t.Fatalf("SSE frame = %q", frame)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestReadyzFollowsServing pins the one readiness rule — /readyz is 200
// from Start until Shutdown begins, 503 before and after — and that the
// index advertises no route a fresh server cannot answer.
func TestReadyzFollowsServing(t *testing.T) {
	srv := NewServer()
	if code := muxStatus(srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before Start = %d, want 503", code)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	// Nothing registered, nothing published: serving is ready.
	if code, body := get(t, base+"/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ready" {
		t.Fatalf("/readyz on a started server = %d %q, want 200 ready", code, body)
	}

	_, index := get(t, base+"/")
	var paths []string
	for _, field := range strings.Fields(index) {
		if strings.HasPrefix(field, "/") {
			paths = append(paths, field)
		}
	}
	if len(paths) == 0 {
		t.Fatalf("index lists no paths:\n%s", index)
	}
	for _, path := range paths {
		// Headers are enough: SSE routes stream until the context ends.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		cancel()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("index lists %s, which answers 404", path)
		}
	}

	// Readiness drops as soon as Shutdown begins, while the listener
	// still accepts: the hooks run before the HTTP server stops.
	var during int
	srv.OnShutdown(func() { during, _ = get(t, base+"/readyz") })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if during != http.StatusServiceUnavailable {
		t.Fatalf("/readyz once Shutdown began = %d, want 503", during)
	}
	if code := muxStatus(srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Shutdown = %d, want 503", code)
	}
}

// readSSEFrame reads one complete SSE frame (up to the blank line) from
// a streaming endpoint, then disconnects.
func readSSEFrame(t *testing.T, url string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var b strings.Builder
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v (got %q)", err, b.String())
		}
		if line == "\n" {
			return b.String() + line
		}
		b.WriteString(line)
	}
}
