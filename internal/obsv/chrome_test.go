package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/trace"
)

// spanTree builds a small traced fleet: three sampled devices, each
// with a meter flush, a watchdog window and an accrued interval.
func spanTree() []trace.Span {
	tr := trace.New("deadbeef", "POST /jobs", trace.Config{SampleRate: 1})
	tr.SetJobName("fleet test/cell")
	ft := tr.Fleet(3)
	for i := 0; i < 3; i++ {
		dt := ft.Device(i)
		dt.Phase(trace.PhaseMeterFlush, 0, 1000, 2.5)
		dt.Phase(trace.PhaseWatchdogWindow, 1000, 2000, 0)
		dt.Accrue(hw.Interval{From: 2000, To: 3000, ScreenJ: 1, SystemJ: 2})
		ft.Finish(i, dt, 5000)
	}
	return tr.Spans()
}

func TestWriteChromeParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, spanTree()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace does not parse: %v\n%s", err, buf.String())
	}
	var x, meta int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			x++
		case "M":
			meta++
		}
	}
	if x != 15 {
		t.Fatalf("chrome trace has %d X events, want 15", x)
	}
	if meta < 4 { // control plane + 3 devices
		t.Fatalf("chrome trace has %d metadata events, want >= 4", meta)
	}
	// One event per line, in trace.json's field order, with no
	// instant-event fields on spans.
	lines := strings.Split(buf.String(), "\n")
	if lines[0] != "[" || len(lines) != len(events)+3 {
		t.Fatalf("framing: first line %q, %d lines for %d events", lines[0], len(lines), len(events))
	}
	if want := `{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"control-plane"}},`; lines[1] != want {
		t.Fatalf("first record = %s, want %s", lines[1], want)
	}
	if strings.Contains(buf.String(), `"cat"`) || strings.Contains(buf.String(), `"s"`) {
		t.Fatal("span records carry instant-event fields")
	}
	// Byte-identical on re-export.
	var buf2 bytes.Buffer
	if err := WriteChromeSpans(&buf2, spanTree()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("chrome export not byte-stable")
	}
}

// TestSpanArgsMarshalLikeSortedMaps: span and metadata args are structs
// whose bytes match the sorted-key maps they replaced, with n present
// only when it is non-zero.
func TestSpanArgsMarshalLikeSortedMaps(t *testing.T) {
	for _, s := range spanTree() {
		got, err := json.Marshal(spanArgs{ID: s.ID.String(), Kind: s.Kind, N: s.N, Parent: s.Parent.String()})
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]any{"id": s.ID.String(), "parent": s.Parent.String(), "kind": s.Kind}
		if s.N != 0 {
			m["n"] = s.N
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("span %s args = %s, want %s", s.Name, got, want)
		}
	}
	got, _ := json.Marshal(nameArgs{`device-<0> & "x"`})
	want, _ := json.Marshal(map[string]any{"name": `device-<0> & "x"`})
	if !bytes.Equal(got, want) {
		t.Fatalf("name args = %s, want %s", got, want)
	}
}
