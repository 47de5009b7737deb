package obsv

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// traceSummary fabricates a distinct live-feed summary for publish i.
func traceSummary(i int) *trace.Summary {
	return &trace.Summary{
		Root:  trace.RootID(fmt.Sprintf("stream-%d", i)),
		Name:  "POST /jobs",
		State: "done",
	}
}

// TestTraceStreamStalledSubscriber is the broker-stress test: a
// stalled /trace subscriber under a live trace stream is dropped (and
// counted) after its miss budget, while a fast in-process subscriber
// and a live HTTP subscriber on the same broker receive every frame
// undisturbed, and the drop surfaces on /metrics. Both live subscribers
// are paced: each publish waits until both have the frame, so neither
// can be dropped however little CPU its goroutine gets. Runs under
// -race in the Makefile's race and trace-smoke gates.
func TestTraceStreamStalledSubscriber(t *testing.T) {
	s := NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// A real HTTP subscriber keeps the stream live end to end; its
	// reader forwards every event name, in order.
	httpCtx, httpCancel := context.WithCancel(context.Background())
	defer httpCancel()
	req, _ := http.NewRequestWithContext(httpCtx, "GET", "http://"+addr+"/trace/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	httpFrames := make(chan string, 8)
	go func() {
		defer close(httpFrames)
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "event: ") {
				select {
				case httpFrames <- strings.TrimSpace(strings.TrimPrefix(line, "event: ")):
				case <-httpCtx.Done():
					return
				}
			}
		}
	}()
	nextHTTP := func(what string) string {
		t.Helper()
		select {
		case ev, ok := <-httpFrames:
			if !ok {
				t.Fatalf("HTTP trace stream closed before %s", what)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("HTTP subscriber never saw %s", what)
		}
		return ""
	}
	// Serve subscribes before it renders the initial replay frame, so
	// once that frame arrives the HTTP subscriber is live.
	if ev := nextHTTP("the initial state frame"); ev != "state" {
		t.Fatalf("initial frame event = %q, want state", ev)
	}

	// One stalled subscriber (never drains) and one fast subscriber
	// (drained in lockstep with each publish).
	stalled := s.traceSSE.Subscribe()
	fast := s.traceSSE.Subscribe()
	total := sseSubBuffer + sseMaxMisses
	for i := 0; i < total; i++ {
		s.PublishTrace(traceSummary(i))
		select {
		case <-fast:
		case <-time.After(5 * time.Second):
			t.Fatalf("fast subscriber starved at frame %d", i)
		}
		// The HTTP subscriber rides out the storm: every storm frame
		// reaches it.
		if ev := nextHTTP(fmt.Sprintf("trace frame %d", i)); ev != "trace" {
			t.Fatalf("HTTP frame %d event = %q, want trace", i, ev)
		}
	}
	if got := s.traceSSE.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d after %d frames against a stalled subscriber, want 1", got, total)
	}
	// The stalled channel was closed after its buffered backlog.
	n := 0
	for range stalled {
		n++
	}
	if n != sseSubBuffer {
		t.Fatalf("stalled subscriber drained %d buffered frames, want %d", n, sseSubBuffer)
	}
	s.traceSSE.Unsubscribe(fast)

	// The drop is visible to any other scraper.
	mresp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(prom), "obsv_sse_dropped_subscribers 1") {
		t.Fatalf("/metrics missing the SSE drop:\n%s", grepLines(string(prom), "dropped"))
	}

	// Concurrent publishers against the live stream: exercises the
	// broker's locking under -race while the HTTP reader drains.
	go func() {
		for range httpFrames {
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				s.PublishTrace(traceSummary(1000 + p*100 + i))
			}
		}(p)
	}
	wg.Wait()
}

// grepLines filters text to lines containing sub, for focused failure
// output.
func grepLines(text, sub string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, sub) {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}
