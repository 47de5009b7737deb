package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Values the byte-identity tests run through both encoders.
var (
	edgeFloats = []float64{
		0, 1, 1e-7, -1e-7, 1e-6, 9.99e20, 1e21, -1e21, 209.99999999999997,
		-42.5, 5e-324, math.SmallestNonzeroFloat64 * 3, 123456789.125, math.MaxFloat64,
	}
	edgeStrings = []string{
		"", "plain ASCII label", `quote"d`, `back\slash`, "<b>", "x > y", "fish & chips",
		"tab\tnew\nline", "\x00\x1f\x7f", "line\u2028sep\u2029", "bad\xffutf8", "ünïcödé",
	}
)

// mustEqualRef fails unless got and want are the same bytes and both
// encoders agree on failing.
func mustEqualRef(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, encoding/json's %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\ngot  %s\nwant %s", what, got, want)
	}
}

func TestJSONAppendMatchesEncodingJSON(t *testing.T) {
	for _, s := range edgeStrings {
		want, err := json.Marshal(s)
		mustEqualRef(t, "string "+s, appendString(nil, s), nil, want, err)
	}
	for _, x := range append(edgeFloats, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)) {
		got, gotErr := appendFloat(nil, x)
		want, err := json.Marshal(x)
		mustEqualRef(t, "float", got, gotErr, want, err)
	}
	// Prefixed output keeps the prefix, and the e-0d shortening reads
	// only the number just appended.
	if got, _ := appendFloat([]byte(`"e-0`), 2e-9); string(got) != `"e-02e-9` {
		t.Fatalf("appendFloat after a prefix = %s", got)
	}
}

// FuzzJSONAppend: for any string and float64, the appender writes
// encoding/json's bytes, or both fail, and a finding's detail text
// writes x in whole mW as strconv.FormatFloat(x, 'f', 0, 64) does.
func FuzzJSONAppend(f *testing.F) {
	for i, s := range edgeStrings {
		f.Add(s, edgeFloats[i%len(edgeFloats)])
	}
	f.Add("nan", math.NaN())
	for _, x := range []float64{0.5, 2.5, 0.49999999999999994, 74.5, 1<<53 - 1, 1 << 53, -2.5, math.Inf(1)} {
		f.Add("whole", x)
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		want, err := json.Marshal(s)
		mustEqualRef(t, "string", appendString(nil, s), nil, want, err)
		got, gotErr := appendFloat([]byte("x"), x)
		want, err = json.Marshal(x)
		mustEqualRef(t, "float", got[1:], gotErr, want, err)
		whole := strconv.FormatFloat(x, 'f', 0, 64)
		text := string(telemetry.AppendAnomalyText(nil, SignalDrainSpike, "", x, x))
		if text != " draining "+whole+" mW against a "+whole+" mW baseline" {
			t.Fatalf("anomaly text for %v is %q, want %s in whole mW", x, text, whole)
		}
	})
}

// chromeSpans covers every span kind and lane, zero start, duration
// and magnitude, and the edge floats and strings.
func chromeSpans() []trace.Span {
	spans := []trace.Span{
		{ID: 1, Kind: trace.KindRequest, Name: "POST /jobs", Dev: -1},
		{ID: 2, Parent: 1, Kind: trace.KindJob, Name: "fleet x", Dev: -1, Start: 5, End: 5},
		{ID: 3, Parent: 2, Kind: trace.KindShard, Name: "shard 0", Dev: -1, End: 1500},
		{ID: 4, Parent: 3, Kind: trace.KindDevice, Name: "device 0", Dev: 0, Start: 0, End: 7e12},
		{ID: 5, Parent: 4, Kind: trace.KindPhase, Name: trace.PhaseMeterFlush.String(), Dev: 0, Start: 1, End: 3, N: 2.5},
		{ID: 6, Parent: 4, Kind: trace.KindPhase, Name: trace.PhaseWatchdogWindow.String(), Dev: 0, Start: 30e9, End: 60e9},
		{ID: 7, Parent: 4, Kind: trace.KindPhase, Name: trace.PhaseKernelBatch.String(), Dev: 0, Start: 999, End: 1000, N: 3},
		{ID: 8, Parent: 4, Kind: trace.KindPhase, Name: "app.launch", Dev: 0, Start: 10, End: 20},
		{ID: 9, Parent: 3, Kind: "mystery", Name: "unknown kind", Dev: -1},
		{ID: math.MaxUint64, Parent: 3, Kind: trace.KindDevice, Name: "device 1", Dev: 1, Start: -7, End: 1 << 60},
	}
	for i, n := range edgeFloats {
		spans = append(spans, trace.Span{
			ID: trace.SpanID(100 + i), Parent: 4, Kind: trace.KindPhase, Name: trace.PhaseMeterFlush.String(),
			Dev: 0, Start: int64(i), End: int64(i) * 1001, N: n,
		})
	}
	for i, s := range edgeStrings {
		spans = append(spans, trace.Span{
			ID: trace.SpanID(200 + i), Parent: 3, Kind: trace.KindDevice, Name: s, Dev: 2 + i, End: 1,
		})
	}
	return spans
}

// chromeEvents covers every telemetry event kind and one unknown kind,
// zero and edge values, and the edge strings.
func chromeEvents() []telemetry.Event {
	evs := []telemetry.Event{
		{T: 0, Kind: telemetry.KindSimEvent, Name: "boot", V0: 0},
		{T: 1, Kind: telemetry.KindLifecycle, Name: "Main", UID: 10001, From: "created", To: "resumed"},
		{T: 2e9, Kind: telemetry.KindPowerState, Name: "screen", UID: 0, V0: 0, V1: 1},
		{T: 3e9, Kind: telemetry.KindBattery, Name: "battery", V0: 0.0125, V1: 99.5},
		{T: 4e9, Kind: telemetry.KindAttribution, Name: "attribution", UID: app.UIDScreen, V0: 1e-9},
		{T: 5e9, Kind: telemetry.KindViolation, Name: "conservation", To: "interval off by 1e-3", V0: 1, V1: 2},
		{T: 6e9, Kind: telemetry.KindAnomaly, Name: SignalDivergence, UID: 10006, To: "FunGame drives 60 mW", V0: 59.99999999999999, V1: 18},
		{T: 7e9, Kind: telemetry.Kind(99), Name: "future kind", V0: 1},
	}
	for i, x := range edgeFloats {
		kind := telemetry.Kind(1 + i%int(telemetry.KindAnomaly))
		evs = append(evs, telemetry.Event{T: sim.Time(i) * 333, Kind: kind, Name: "edge", UID: app.UID(i), V0: x, V1: -x})
	}
	for i, s := range edgeStrings {
		kind := telemetry.Kind(1 + i%int(telemetry.KindAnomaly))
		evs = append(evs, telemetry.Event{T: sim.Time(i), Kind: kind, Name: s, From: s, To: s})
	}
	return evs
}

// chromeFindings covers devices with no findings (nil and empty), all
// three signals, and the edge floats and labels.
func chromeFindings() [][]Finding {
	spike := Finding{T: 30e9, Signal: SignalDrainSpike, UID: 10001, Label: "Burner", RateMW: 412.49, BaselineMW: 3.5}
	dev := Finding{T: 60e9, Signal: SignalDeviceSpike, UID: app.UIDNone, Label: "device", RateMW: 900.5, BaselineMW: 0}
	div := Finding{T: 90e9, Signal: SignalDivergence, UID: 10006, Label: "FunGame", RateMW: 389.99999999999994, BaselineMW: 0}
	var edge []Finding
	for i, x := range edgeFloats {
		f := div
		if i%2 == 1 {
			f = spike
		}
		f.RateMW, f.BaselineMW = x, -x
		edge = append(edge, f)
	}
	for _, s := range edgeStrings {
		f := spike
		f.Label = s
		edge = append(edge, f)
		f.Signal = SignalDivergence
		edge = append(edge, f)
	}
	return [][]Finding{nil, {spike, dev, div}, {}, edge, {div}}
}

func TestChromeSpansMatchReference(t *testing.T) {
	spans := append(spanTree(), chromeSpans()...)
	for _, sp := range [][]trace.Span{spans, nil} {
		var got, want bytes.Buffer
		gotErr, wantErr := WriteChromeSpans(&got, sp), refWriteChromeSpans(&want, sp)
		mustEqualRef(t, "spans", got.Bytes(), gotErr, want.Bytes(), wantErr)
	}
	spans[4].N = math.NaN()
	var got, want bytes.Buffer
	gotErr, wantErr := WriteChromeSpans(&got, spans), refWriteChromeSpans(&want, spans)
	if gotErr == nil || wantErr == nil {
		t.Fatalf("a NaN magnitude: error %v, encoding/json's %v; both must fail", gotErr, wantErr)
	}
}

func TestChromeEventsMatchReference(t *testing.T) {
	events := append(exportRecorder().Events(), chromeEvents()...)
	for _, pid := range []int{0, 7} {
		var got, want bytes.Buffer
		gotErr, wantErr := WriteChromeEvents(&got, pid, events), refWriteChromeEvents(&want, pid, events)
		mustEqualRef(t, "events", got.Bytes(), gotErr, want.Bytes(), wantErr)
	}
	events[0].V0 = math.Inf(1)
	var got, want bytes.Buffer
	gotErr, wantErr := WriteChromeEvents(&got, 0, events), refWriteChromeEvents(&want, 0, events)
	if gotErr == nil || wantErr == nil {
		t.Fatalf("an infinite value: error %v, encoding/json's %v; both must fail", gotErr, wantErr)
	}
}

func TestFindingsJSONMatchesReference(t *testing.T) {
	for _, perDevice := range [][][]Finding{chromeFindings(), nil, {}, {nil}, {{}}} {
		var got bytes.Buffer
		gotErr := WriteFindingsJSON(&got, perDevice)
		want, wantErr := refWatchdogJSON(perDevice)
		mustEqualRef(t, "watchdog.json", got.Bytes(), gotErr, want, wantErr)
	}
	perDevice := chromeFindings()
	perDevice[1][1].BaselineMW = math.NaN()
	var got bytes.Buffer
	gotErr := WriteFindingsJSON(&got, perDevice)
	if _, wantErr := refWatchdogJSON(perDevice); gotErr == nil || wantErr == nil {
		t.Fatalf("a NaN rate: error %v, encoding/json's %v; both must fail", gotErr, wantErr)
	}
	if got.Len() != 0 {
		t.Fatalf("a failed encode wrote %d bytes", got.Len())
	}
}
