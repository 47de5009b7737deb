package eandroid_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	eandroid "repro"
)

// TestPublicObservability exercises the observability re-exports end to
// end: a flame collector and watchdog attached through the root API, a
// Prometheus rendering of the recorder's snapshot, and a live server
// round-trip on an ephemeral port with that snapshot as a metrics
// source.
func TestPublicObservability(t *testing.T) {
	rec := eandroid.NewTelemetry(eandroid.TelemetryOptions{})
	dev := eandroid.MustNew(eandroid.Config{EAndroid: true, Telemetry: rec})
	fc := eandroid.AttachFlame(dev)
	wd, err := eandroid.NewWatchdog(dev, eandroid.WatchdogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()

	victim, _ := installPair(t, dev)
	if _, err := dev.Activities.UserStartApp("com.pub.victim"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	_ = victim

	// A benign, user-started run must stay clean.
	if f := wd.Finish(); len(f) != 0 {
		t.Fatalf("benign run flagged: %v", f)
	}

	// The flame graph conserves energy: folded joules == drained joules.
	flame := fc.Fold()
	if got, want := flame.TotalJ(), dev.DrainedJ(); got < want*0.999 || got > want*1.001 {
		t.Fatalf("flame total %.3f J, drained %.3f J", got, want)
	}
	var collapsed strings.Builder
	if err := flame.WriteCollapsed(&collapsed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(collapsed.String(), "screen;Screen;(display)") {
		t.Fatalf("collapsed stacks missing screen row:\n%s", collapsed.String())
	}

	var prom strings.Builder
	metrics := rec.Metrics()
	if err := eandroid.WritePrometheus(&prom, metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "hw_mw_system") {
		t.Fatalf("prometheus output missing metrics:\n%s", prom.String())
	}

	srv := eandroid.NewObsvServer()
	srv.AddMetricsSource(func() *eandroid.TelemetryMetrics { return metrics })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	for path, want := range map[string]string{
		"/healthz": "ok",
		"/readyz":  "ready",
		"/metrics": "hw_mw_system",
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("%s: status %d, body %q", path, resp.StatusCode, body)
		}
	}
}
