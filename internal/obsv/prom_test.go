package obsv

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func promMetrics(t *testing.T) *telemetry.Metrics {
	t.Helper()
	return exportRecorder().Metrics()
}

// parseProm validates the text exposition line grammar and returns
// sample values by series name.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			// HELP and other comments are legal exposition.
			continue
		}
		// Exemplars ride after a '#' on bucket sample lines; the sample
		// value is what precedes them.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// "name value" or `name_bucket{le="x"} value`.
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[line[:idx]] = v
	}
	return samples
}

func TestWritePrometheusShapeAndValues(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, promMetrics(t)); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples := parseProm(t, text)
	if v := samples["obsv_anomalies"]; v != 1 {
		t.Fatalf("obsv_anomalies = %v, want 1", v)
	}
	if v := samples["acct_attributions"]; v != 1 {
		t.Fatalf("acct_attributions = %v, want 1", v)
	}
	if v := samples["hw_mw_cpu_count"]; v != 1 {
		t.Fatalf("hw_mw_cpu_count = %v, want 1", v)
	}
	if v := samples["hw_mw_cpu_sum"]; v != 42 {
		t.Fatalf("hw_mw_cpu_sum = %v, want 42", v)
	}
	if !strings.Contains(text, `_bucket{le="+Inf"} 1`) {
		t.Fatalf("missing +Inf bucket:\n%s", text)
	}
	// Cumulative buckets never decrease.
	var last float64 = -1
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "hw_mw_cpu_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < last {
			t.Fatalf("bucket counts decreased at %q", line)
		}
		last = v
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	s := promMetrics(t)
	var a, b strings.Builder
	if err := WritePrometheus(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same registry differ")
	}
}

func TestWritePrometheusNilSnapshot(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry rendered %q", b.String())
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"hw.mw.cpu":     "hw_mw_cpu",
		"sim:events":    "sim:events",
		"9lives":        "_lives",
		"ok_name":       "ok_name",
		"weird-name/x!": "weird_name_x_",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
