package telemetry_test

// End-to-end golden tests: a real device runs a paper scene with the
// recorder attached, and the exported artifacts — through the same
// obsv encoders the CLIs' files and the jobs' artifacts use — must be
// valid and byte-identical across runs: the telemetry analog of the
// repo's determinism guarantee for energy ledgers.

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// runScene runs scene #1 with a fresh recorder and returns it.
func runScene(t *testing.T) *telemetry.Recorder {
	t.Helper()
	rec := telemetry.New(telemetry.Options{})
	w, err := scenario.NewWorld(device.Config{
		EAndroid:  true,
		Policy:    accounting.BatteryStats,
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Scene1MessageFilm(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestSceneProducesAllEventKinds(t *testing.T) {
	rec := runScene(t)
	if rec.Total() == 0 {
		t.Fatal("scene recorded no events")
	}
	kinds := make(map[telemetry.Kind]int)
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	for _, k := range []telemetry.Kind{
		telemetry.KindSimEvent, telemetry.KindLifecycle, telemetry.KindPowerState,
		telemetry.KindBattery, telemetry.KindAttribution,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded (got %v)", k, kinds)
		}
	}
}

func TestTraceExportGolden(t *testing.T) {
	var first []byte
	for run := 0; run < 2; run++ {
		rec := runScene(t)
		var buf bytes.Buffer
		if err := obsv.WriteChromeEvents(&buf, 0, rec.Events()); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = append([]byte(nil), buf.Bytes()...)
			// Valid trace-event JSON: a non-empty array.
			var events []json.RawMessage
			if err := json.Unmarshal(first, &events); err != nil {
				t.Fatalf("trace.json is not valid JSON: %v", err)
			}
			if len(events) == 0 {
				t.Fatal("trace.json has no events")
			}
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatal("trace.json differs between identical runs")
		}
	}
}

func TestMetricsDumpGolden(t *testing.T) {
	var a, b bytes.Buffer
	if err := obsv.WritePrometheus(&a, runScene(t).Metrics()); err != nil {
		t.Fatal(err)
	}
	if err := obsv.WritePrometheus(&b, runScene(t).Metrics()); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("metrics dump is empty")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("metrics dump differs between identical runs:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

func TestJSONLExportGolden(t *testing.T) {
	var a, b bytes.Buffer
	if err := telemetry.WriteJSONL(&a, runScene(t).Events()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(&b, runScene(t).Events()); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("events.jsonl differs between identical runs (or is empty)")
	}
}

func TestWriteTraceIsValidAndDeterministic(t *testing.T) {
	events := []telemetry.Event{
		{T: sim.Time(1500 * sim.Millisecond), Kind: telemetry.KindSimEvent, Name: "tick", V0: 2},
		{T: 2 * sim.Second, Kind: telemetry.KindLifecycle, Name: "app/.Main", UID: 10001, From: "stopped", To: "resumed"},
		{T: 3 * sim.Second, Kind: telemetry.KindPowerState, Name: "screen", UID: 1000, V0: 0, V1: 1},
		{T: 4 * sim.Second, Kind: telemetry.KindBattery, Name: "battery", V0: 0.5, V1: 99.5},
		{T: 5 * sim.Second, Kind: telemetry.KindAttribution, Name: "attribution", UID: 10001, V0: 0.25},
	}
	var a, b bytes.Buffer
	if err := obsv.WriteChromeEvents(&a, 0, events); err != nil {
		t.Fatal(err)
	}
	if err := obsv.WriteChromeEvents(&b, 0, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("trace export is not deterministic")
	}
	var records []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal(a.Bytes(), &records); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	meta, inst, threads := 0, 0, 0
	for _, te := range records {
		switch te.Phase {
		case "M":
			meta++
			if te.Name == "thread_name" {
				threads++
			}
		case "i":
			inst++
		default:
			t.Fatalf("unexpected phase %q", te.Phase)
		}
	}
	// One process name plus one named thread lane per event kind
	// (kinds number 1 through KindAnomaly).
	if kinds := int(telemetry.KindAnomaly); threads != kinds || meta != 1+kinds {
		t.Fatalf("metadata events = %d (%d thread lanes), want 1 + %d", meta, threads, kinds)
	}
	if inst != len(events) {
		t.Fatalf("instant events = %d, want %d", inst, len(events))
	}
	// The kernel event lands at 1.5s = 1.5e6 us on the sim lane.
	first := records[meta]
	if first.Name != "tick" || first.TS != 1.5e6 || first.TID != 1 {
		t.Fatalf("kernel event = %+v, want tick at ts=1.5e6 on tid 1", first)
	}
	if first.Args["queue_depth"] != 2.0 {
		t.Fatalf("kernel args = %v", first.Args)
	}
}
