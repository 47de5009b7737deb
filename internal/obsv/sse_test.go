package obsv

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestServerTimeoutsSet pins the slowloris hardening: the underlying
// http.Server must carry header-read and idle timeouts. (Before this
// regression test both were zero — a client dribbling one header byte
// per minute could hold a connection open forever.)
func TestServerTimeoutsSet(t *testing.T) {
	s := NewServer()
	if s.srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want > 0", s.srv.ReadHeaderTimeout)
	}
	if s.srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want > 0", s.srv.IdleTimeout)
	}
}

// TestShutdownClosesSSEPromptly: a live SSE subscriber must not hold
// Shutdown to its deadline — the brokers close first, so the stream
// handler returns and Shutdown completes quickly.
func TestShutdownClosesSSEPromptly(t *testing.T) {
	s := NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/trace/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read the initial state frame so the subscription is fully live.
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "event:") {
		t.Fatalf("initial SSE frame = %q, %v", line, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("Shutdown took %v with a live SSE subscriber — streams not closed promptly", wall)
	}
	// The stream must have ended.
	if _, err := br.ReadString(0); err == nil {
		t.Fatal("SSE stream still open after Shutdown")
	}
}

// TestShutdownRunsHooksOnce: OnShutdown hooks fire at the start of
// Shutdown, exactly once even when Shutdown is called twice (the CLI
// error path can double-shutdown).
func TestShutdownRunsHooksOnce(t *testing.T) {
	s := NewServer()
	calls := 0
	s.OnShutdown(func() { calls++ })
	ctx := context.Background()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("shutdown hooks ran %d times, want 1", calls)
	}
}

// TestBrokerDropsStuckSubscriber: a subscriber that never drains its
// channel is disconnected after sseMaxMisses consecutive missed frames
// — and counted — instead of being silently skipped forever.
func TestBrokerDropsStuckSubscriber(t *testing.T) {
	b := NewSSEBroker()
	stuck := b.Subscribe()
	live := b.Subscribe()

	// Fill the stuck subscriber's buffer, then miss sseMaxMisses times,
	// draining the live subscriber after every publish so only the
	// stuck one accumulates misses.
	total := sseSubBuffer + sseMaxMisses
	for i := 0; i < total; i++ {
		b.Publish("frame\n\n")
		<-live
	}
	if got := b.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d after %d undrained frames, want 1", got, total)
	}
	if got := b.Subscribers(); got != 1 {
		t.Fatalf("Subscribers() = %d, want 1 (stuck one removed)", got)
	}
	// The stuck channel was closed: drain the buffered frames, then see
	// the close.
	n := 0
	for range stuck {
		n++
	}
	if n != sseSubBuffer {
		t.Fatalf("stuck subscriber drained %d buffered frames, want %d", n, sseSubBuffer)
	}
	// Unsubscribing an already-dropped channel is a no-op.
	b.Unsubscribe(stuck)
	b.CloseAll()
}

// TestBrokerMissResetOnDelivery: an intermittently-slow subscriber that
// does drain is never dropped — only *consecutive* misses count.
func TestBrokerMissResetOnDelivery(t *testing.T) {
	b := NewSSEBroker()
	ch := b.Subscribe()
	for round := 0; round < 3; round++ {
		// Fill the buffer and miss a few times — but fewer than the
		// drop threshold.
		for i := 0; i < sseSubBuffer+sseMaxMisses/2; i++ {
			b.Publish("x\n\n")
		}
		// Drain; the next delivery resets the miss streak.
	drain:
		for {
			select {
			case <-ch:
			default:
				break drain
			}
		}
	}
	if got := b.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d for a draining subscriber, want 0", got)
	}
	b.CloseAll()
}

// flushHook is a ResponseWriter whose first Flush runs a hook: the
// moment Serve has written its initial frames and not yet entered its
// live loop.
type flushHook struct {
	*httptest.ResponseRecorder
	hook func()
}

func (f *flushHook) Flush() {
	if h := f.hook; h != nil {
		f.hook = nil
		h()
	}
	f.ResponseRecorder.Flush()
}

// TestServeKeepsFrameDuringInitialFlush: a frame published while Serve
// flushes its initial frames reaches the subscriber. This is a job that
// finishes just as a client opens /jobs/{id}/events: the terminal frame
// is published and the broker closed inside that gap, and a stream that
// subscribed only after the flush ended on "running" with no terminal
// state.
func TestServeKeepsFrameDuringInitialFlush(t *testing.T) {
	b := NewSSEBroker()
	w := &flushHook{ResponseRecorder: httptest.NewRecorder()}
	w.hook = func() {
		b.Publish(SSEFrame("job", `{"state":"done"}`))
		b.CloseAll()
	}
	req := httptest.NewRequest("GET", "/jobs/j1/events", nil)
	b.Serve(w, req, func() []string {
		return []string{SSEFrame("job", `{"state":"running"}`)}
	})
	want := SSEFrame("job", `{"state":"running"}`) + SSEFrame("job", `{"state":"done"}`)
	if got := w.Body.String(); got != want {
		t.Fatalf("stream = %q, want %q", got, want)
	}
}

// TestMetricsSourceMerged: registries from AddMetricsSource appear on
// /metrics alongside the server's own SSE drop counter.
func TestMetricsSourceMerged(t *testing.T) {
	s := NewServer()
	s.AddMetricsSource(func() *telemetry.Metrics {
		m := telemetry.NewMetrics()
		m.Counter("jobs_test_counter").Add(7)
		return m
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "jobs_test_counter 7") {
		t.Fatalf("/metrics missing source counter:\n%s", body)
	}
	if !strings.Contains(body, "obsv_sse_dropped_subscribers") {
		t.Fatalf("/metrics missing SSE drop counter:\n%s", body)
	}
}
