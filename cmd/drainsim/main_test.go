package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSummary(t *testing.T) {
	if err := run([]string{"-step", "15m"}); err != nil {
		t.Fatal(err)
	}
}

func TestCSV(t *testing.T) {
	if err := run([]string{"-step", "15m", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelWorkers(t *testing.T) {
	if err := run([]string{"-step", "15m", "-workers", "0"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadStep(t *testing.T) {
	if err := run([]string{"-step", "-5s"}); err == nil {
		t.Fatal("negative step accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestTelemetryFlagsRequireSerialSweep(t *testing.T) {
	err := run([]string{"-workers", "2", "-trace-out", filepath.Join(t.TempDir(), "t.json")})
	if err == nil || !strings.Contains(err.Error(), "-workers 1") {
		t.Fatalf("run = %v, want telemetry/workers conflict error", err)
	}
}

func TestTelemetryExports(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	metrics := filepath.Join(dir, "metrics.txt")
	if err := run([]string{"-step", "15m", "-trace-out", trace, "-metrics-out", metrics}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{trace, metrics} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("export %s missing or empty (err=%v)", p, err)
		}
	}
}

// TestEventExportNotesOverwrites: a 15-minute-step sweep records more
// events than the ring keeps; -events-out writes the retained ones and
// the run says on stderr how many it kept, recorded and overwrote.
func TestEventExportNotesOverwrites(t *testing.T) {
	var notes strings.Builder
	defer func(w io.Writer) { stderr = w }(stderr)
	stderr = &notes
	events := filepath.Join(t.TempDir(), "events.jsonl")
	if err := run([]string{"-step", "15m", "-events-out", events}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	kept := strings.Count(string(blob), "\n")
	want := fmt.Sprintf("drainsim: event export keeps %d of ", kept)
	if got := notes.String(); !strings.HasPrefix(got, want) || strings.Count(got, "\n") != 1 ||
		!strings.Contains(got, "the rings overwrote the oldest ") {
		t.Fatalf("stderr = %q, want one line starting %q", got, want)
	}
}
