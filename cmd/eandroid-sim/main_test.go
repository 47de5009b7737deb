package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestNoArgsShowsList(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig9a"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestTelemetryExports: the batch files decode like a job's artifacts —
// -trace-out as a Chrome trace-event array (trace.json's framing),
// -metrics-out as Prometheus text (metrics.prom's encoding).
func TestTelemetryExports(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	events := filepath.Join(dir, "events.jsonl")
	metrics := filepath.Join(dir, "metrics.prom")
	err := run([]string{"-exp", "fig9a",
		"-trace-out", trace, "-events-out", events, "-metrics-out", metrics})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var records []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(blob, &records); err != nil {
		t.Fatalf("trace.json is not a trace-event array: %v", err)
	}
	if len(records) == 0 || records[0].Name != "process_name" {
		t.Fatalf("trace.json: %d records, want process_name first", len(records))
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE sim_events_fired counter\n") {
		t.Fatalf("metrics file is not Prometheus text:\n%s", prom)
	}
	if st, err := os.Stat(events); err != nil || st.Size() == 0 {
		t.Fatalf("export %s missing or empty (err=%v)", events, err)
	}
}

// TestEventExportNotesOverwrites: fig3 records more events than the
// ring keeps, so -events-out writes only the retained ones and the run
// says on stderr how many it kept, recorded and overwrote.
func TestEventExportNotesOverwrites(t *testing.T) {
	var notes strings.Builder
	defer func(w io.Writer) { stderr = w }(stderr)
	stderr = &notes
	events := filepath.Join(t.TempDir(), "events.jsonl")
	if err := run([]string{"-exp", "fig3", "-events-out", events}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	kept := strings.Count(string(blob), "\n")
	want := fmt.Sprintf("eandroid-sim: event export keeps %d of ", kept)
	if got := notes.String(); !strings.HasPrefix(got, want) || strings.Count(got, "\n") != 1 ||
		!strings.Contains(got, "the rings overwrote the oldest ") {
		t.Fatalf("stderr = %q, want one line starting %q", got, want)
	}

	// Without an event export there is nothing to note.
	notes.Reset()
	metrics := filepath.Join(t.TempDir(), "metrics.prom")
	if err := run([]string{"-exp", "fig3", "-metrics-out", metrics}); err != nil {
		t.Fatal(err)
	}
	if notes.Len() != 0 {
		t.Fatalf("metrics-only export wrote %q to stderr", notes.String())
	}
}

// TestFlameExports: -flame-out / -flame-html write non-empty,
// well-formed renderings of the experiment's energy flame.
func TestFlameExports(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "flame.txt")
	html := filepath.Join(dir, "flame.html")
	if err := run([]string{"-exp", "fig9a", "-flame-out", txt, "-flame-html", html}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 || !strings.Contains(string(blob), ";") {
		t.Fatalf("collapsed flame looks wrong: %q", blob)
	}
	page, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "<!DOCTYPE html>") {
		t.Fatalf("flame HTML missing doctype")
	}
}
