package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
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

// TestRejectsIgnoredFlags: a flag the selected mode would ignore fails
// the run before anything runs or any file is written.
func TestRejectsIgnoredFlags(t *testing.T) {
	defer func(w io.Writer) { stdout = w }(stdout)
	stdout = io.Discard
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		args []string
		bad  string // the flag named in the error; "" means accepted
	}{
		{[]string{"-fleet", "4", "-exp", "fig9a"}, "-exp"},
		{[]string{"-fleet", "4", "-list"}, "-list"},
		{[]string{"-fleet", "4", "-check=false"}, "-check"},
		{[]string{"-fleet", "4", "-metrics-out", out("m.prom")}, "-metrics-out"},
		{[]string{"-fleet", "4", "-flame-out", out("f.txt")}, "-flame-out"},
		{[]string{"-list", "-flame-html", out("f.html")}, "-flame-html"},
		{[]string{"-list", "-trace-out", out("t.json")}, "-trace-out"},
		{[]string{"-list", "-exp", "fig9a"}, "-exp"},
		{[]string{"-list", "-exp", "fig9a", "-check=false"}, "-check"},
		{[]string{"-list", "-check=false"}, "-check"},
		{[]string{"-check"}, "-check"},
		{[]string{"-events-out", out("e.jsonl")}, "-events-out"},
		{[]string{"-exp", "fig9a", "-workers", "2"}, "-workers"},
		{[]string{"-seed", "7"}, "-seed"},
		{[]string{"-fleet", "0", "-workers", "2"}, "-workers"},
		{[]string{"-fleet", "4", "-workers", "2", "-seed", "7"}, ""},
		{[]string{"-exp", "", "-list"}, ""},
		{[]string{"-exp", "fig9a", "-check=false"}, ""},
	} {
		err := run(tc.args)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.bad+" ")):
			t.Errorf("%q: err = %v, want one naming %s", tc.args, err, tc.bad)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("rejected runs wrote %d files, first %s", len(files), files[0].Name())
	}
}

// TestOptionsMoveNoStdoutByte: the checker switch and the five file
// exports observe an experiment without changing it, so each
// deterministic experiment prints the same bytes with and without
// them. fig10, fig11 and ext-telemetry print wall-clock timings.
func TestOptionsMoveNoStdoutByte(t *testing.T) {
	defer func(o, e io.Writer) { stdout, stderr = o, e }(stdout, stderr)
	stderr = io.Discard
	capture := func(args ...string) string {
		var b strings.Builder
		stdout = &b
		if err := run(args); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return b.String()
	}
	for _, s := range experiments.All() {
		switch s.ID {
		case "fig10", "fig11", "ext-telemetry":
			continue
		}
		dir := t.TempDir()
		args := []string{"-exp", s.ID, "-check=false"}
		for _, f := range []string{"trace-out", "events-out", "metrics-out", "flame-out", "flame-html"} {
			args = append(args, "-"+f, filepath.Join(dir, f))
		}
		if capture("-exp", s.ID) != capture(args...) {
			t.Errorf("%s: stdout moved under -check=false and the five file exports", s.ID)
		}
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
