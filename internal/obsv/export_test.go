package obsv

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// failWriter fails every Write after the first `allow` bytes have been
// accepted — the shape of a full disk. With allow larger than the
// payload but smaller than bufio's buffer, the failure only surfaces at
// Flush, which is exactly the path the buffered encoders must
// propagate.
type failWriter struct {
	allow int
	wrote int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.allow {
		n := w.allow - w.wrote
		if n < 0 {
			n = 0
		}
		w.wrote += n
		return n, fmt.Errorf("failWriter: full after %d bytes", w.allow)
	}
	w.wrote += len(p)
	return len(p), nil
}

// exportRecorder records one event of three kinds plus a histogram
// sample, so every encoder has something to write.
func exportRecorder() *telemetry.Recorder {
	r := telemetry.New(telemetry.Options{})
	r.RecordSimEvent(0, "boot", 1)
	r.RecordAttribution(1e9, 10001, 2.5)
	r.RecordAnomaly(2e9, 10001, SignalDrainSpike, "Burner & co", 120, 20)
	r.Metrics().Histogram("hw.mw.cpu", telemetry.PowerBuckets).Observe(42)
	return r
}

// TestExportersPropagateWriterErrors drives every encoder into a
// writer that fails at various cut points — including failure only at
// the final buffered flush — and requires the error back.
func TestExportersPropagateWriterErrors(t *testing.T) {
	rec := exportRecorder()
	events, metrics, spans := rec.Events(), rec.Metrics(), spanTree()
	encoders := []struct {
		name string
		run  func(w io.Writer) error
	}{
		{"WriteChromeSpans", func(w io.Writer) error { return WriteChromeSpans(w, spans) }},
		{"WriteChromeEvents", func(w io.Writer) error { return WriteChromeEvents(w, 0, events) }},
		{"WriteJSONL", func(w io.Writer) error { return telemetry.WriteJSONL(w, events) }},
		{"WritePrometheus", func(w io.Writer) error { return WritePrometheus(w, metrics) }},
	}
	for _, enc := range encoders {
		// Full output size, to pick interesting cut points.
		probe := &failWriter{allow: 1 << 20}
		if err := enc.run(probe); err != nil {
			t.Fatalf("%s: unexpected error on roomy writer: %v", enc.name, err)
		}
		total := probe.wrote
		if total == 0 {
			t.Fatalf("%s wrote nothing", enc.name)
		}
		// Fail at first byte, mid-stream, and one byte short: for the
		// buffered encoders the last case only errors inside bufio's
		// Flush (the payloads are smaller than its buffer), which an
		// unchecked Flush would silently swallow.
		for _, allow := range []int{0, total / 2, total - 1} {
			if err := enc.run(&failWriter{allow: allow}); err == nil {
				t.Errorf("%s: writer failing after %d/%d bytes, got nil error", enc.name, allow, total)
			}
		}
	}
}

// TestExportFilesPropagatesCreateError covers the file-backed path: an
// unwritable destination must fail loudly for every output.
func TestExportFilesPropagatesCreateError(t *testing.T) {
	r := exportRecorder()
	bad := filepath.Join(t.TempDir(), "missing-dir", "out")
	for i, args := range [][3]string{{bad, "", ""}, {"", bad, ""}, {"", "", bad}} {
		if err := ExportFiles(r, args[0], args[1], args[2]); err == nil {
			t.Errorf("arg %d: ExportFiles into missing dir, got nil error", i)
		}
	}
}

// TestExportFilesWritesAllOutputs: each of the three files is
// byte-equal to its encoder's output for the same recorder — the CLIs'
// files and a job's artifacts share one encoder per format.
func TestExportFilesWritesAllOutputs(t *testing.T) {
	r := exportRecorder()
	dir := t.TempDir()
	trace, events, metrics := filepath.Join(dir, "t.json"), filepath.Join(dir, "e.jsonl"), filepath.Join(dir, "m.prom")
	if err := ExportFiles(r, trace, events, metrics); err != nil {
		t.Fatal(err)
	}
	var wantTrace, wantEvents, wantMetrics bytes.Buffer
	if err := WriteChromeEvents(&wantTrace, 0, r.Events()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(&wantEvents, r.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&wantMetrics, r.Metrics()); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{
		trace:   wantTrace.Bytes(),
		events:  wantEvents.Bytes(),
		metrics: wantMetrics.Bytes(),
	} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, want the encoder's %d:\n%s", filepath.Base(path), len(got), len(want), got)
		}
	}
}
