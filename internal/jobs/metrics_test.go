package jobs

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/trace"
)

func TestREDExemplarsAndText(t *testing.T) {
	red := newREDMetrics()
	ex := trace.RootID("job-key")
	red.Observe("POST /jobs", "fleet", 202, 3*time.Millisecond, ex)
	red.Observe("POST /jobs", "fleet", 500, 40*time.Millisecond, 0)
	red.Observe("GET /jobs", "", 200, 100*time.Microsecond, 0)
	render := func() string {
		var b strings.Builder
		if err := obsv.WritePrometheus(&b, red.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	text := render()

	for _, want := range []string{
		`eandroid_jobs_requests_total{endpoint="POST /jobs",kind="fleet"} 2`,
		`eandroid_jobs_errors_total{endpoint="POST /jobs",kind="fleet"} 1`,
		`eandroid_jobs_requests_total{endpoint="GET /jobs"} 1`,
		`eandroid_jobs_duration_seconds_count{endpoint="POST /jobs",kind="fleet"} 2`,
		`eandroid_jobs_duration_seconds_bucket{endpoint="GET /jobs",le="+Inf"} 1`,
		`eandroid_jobs_duration_seconds_bucket{endpoint="POST /jobs",kind="fleet",le="0.005"} 1 # {span="` + ex.String() + `"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("RED text missing %q:\n%s", want, text)
		}
	}
	// Stable output.
	if render() != text {
		t.Fatal("RED text not stable across writes")
	}
}

// TestMetricsExposition scrapes /metrics off a server with the jobs
// plane attached, after one job ran through it, and checks the shape of
// the one encoder's output: exactly one # TYPE line per family with
// that family's samples contiguous under it, the RED exemplar line
// shape, and the process hygiene gauges.
func TestMetricsExposition(t *testing.T) {
	base, _, stop := startPlane(t, Options{Runners: 1})
	defer stop()
	spec := cheapSpec(7)
	spec.Kind = KindFleet
	spec.Devices = 2
	code, st := postSpec(t, base, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	if final := waitDone(t, base, st.ID); final.State != StateDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)

	types := map[string]string{}  // family -> type
	values := map[string]string{} // series -> sample value
	var family, typ string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if _, dup := types[f[2]]; dup {
				t.Fatalf("second # TYPE line for family %s", f[2])
			}
			family, typ = f[2], f[3]
			types[family] = typ
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if name != family && (typ != "histogram" || (name != family+"_bucket" &&
			name != family+"_sum" && name != family+"_count")) {
			t.Fatalf("sample %q is outside its family's block (current family %s)", line, family)
		}
		sample := strings.SplitN(line, " # ", 2)[0] // drop any exemplar
		sp := strings.LastIndexByte(sample, ' ')
		values[sample[:sp]] = sample[sp+1:]
	}
	for fam, want := range map[string]string{
		"jobs_submitted":                 "counter",
		"jobs_queue_depth":               "gauge",
		"eandroid_jobs_requests_total":   "counter",
		"eandroid_jobs_duration_seconds": "histogram",
		"obsv_sse_dropped_subscribers":   "counter",
		"eandroid_build_info":            "gauge",
	} {
		if types[fam] != want {
			t.Errorf("family %s has type %q, want %q", fam, types[fam], want)
		}
	}

	// RED: every exemplar line has the bucket shape, and the submission
	// carries one pointing at the job's root span.
	exemplar := regexp.MustCompile(`^eandroid_jobs_duration_seconds_bucket\{endpoint="[^"]+"(,kind="[a-z]+")?,le="[^"]+"\} \d+ # \{span="[0-9a-f]{16}"\} 1$`)
	sawRoot := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, " # ") {
			continue
		}
		if !exemplar.MatchString(line) {
			t.Errorf("malformed exemplar line %q", line)
		}
		sawRoot = sawRoot || strings.HasPrefix(line, `eandroid_jobs_duration_seconds_bucket{endpoint="POST /jobs",kind="fleet",`) &&
			strings.HasSuffix(line, `# {span="`+st.Trace+`"} 1`)
	}
	if !sawRoot {
		t.Errorf("no POST /jobs bucket carries the job's root span %s as exemplar:\n%s", st.Trace, text)
	}

	// Hygiene gauges.
	if info := regexp.MustCompile(`(?m)^eandroid_build_info\{version="[^"]+",go="go[^"]*"\} 1$`); !info.MatchString(text) {
		t.Errorf("missing eandroid_build_info{version=...,go=...} 1:\n%s", text)
	}
	for _, name := range []string{"eandroid_process_uptime_seconds", "eandroid_process_goroutines", "eandroid_process_heap_inuse_bytes"} {
		raw, ok := values[name]
		if !ok || types[name] != "gauge" {
			t.Errorf("missing hygiene gauge %s", name)
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 || (name != "eandroid_process_uptime_seconds" && v == 0) {
			t.Errorf("hygiene gauge %s = %q (err %v)", name, raw, err)
		}
	}
}

// TestRejectedKindsAddNoSeries: the kind of a POST /jobs body becomes a
// RED label only when it names a job kind. Requests with unknown kinds
// are answered 400 and counted with no kind, so a client cannot add a
// /metrics series for every string it sends.
func TestRejectedKindsAddNoSeries(t *testing.T) {
	base, _, stop := startPlane(t, Options{Runners: 1})
	defer stop()
	const rejected = 3
	for i := 0; i < rejected; i++ {
		spec := cheapSpec(1)
		spec.Kind = fmt.Sprintf("bogus-%d-%s", i, strings.Repeat("x", 64))
		if code, _ := postSpec(t, base, spec); code != http.StatusBadRequest {
			t.Fatalf("kind %q: HTTP %d, want 400", spec.Kind, code)
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, m := range regexp.MustCompile(`kind="([^"]*)"`).FindAllStringSubmatch(text, -1) {
		if m[1] != KindScenario && m[1] != KindFleet && m[1] != KindCorpus {
			t.Fatalf("/metrics carries kind %q:\n%s", m[1], text)
		}
	}
	if want := fmt.Sprintf(`eandroid_jobs_requests_total{endpoint="POST /jobs"} %d`, rejected); !strings.Contains(text, want) {
		t.Fatalf("/metrics missing %q:\n%s", want, text)
	}
}
