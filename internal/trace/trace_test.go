package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func TestDeriveIsPureAndSpreads(t *testing.T) {
	root := RootID("abc123")
	if root != RootID("abc123") {
		t.Fatal("RootID not pure")
	}
	if RootID("abc123") == RootID("abc124") {
		t.Fatal("distinct seeds collide")
	}
	a, b := Derive(root, 1), Derive(root, 2)
	if a == b || a == root || b == root {
		t.Fatalf("derivation collides: root=%v a=%v b=%v", root, a, b)
	}
	if Derive(root, 1) != a {
		t.Fatal("Derive not pure")
	}
}

func TestSpanIDJSONHex(t *testing.T) {
	id := SpanID(0x0123456789abcdef)
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"0123456789abcdef"` {
		t.Fatalf("SpanID JSON = %s", b)
	}
}

func TestSampledPureAndRoughlyProportional(t *testing.T) {
	root := RootID("sample-test")
	n, rate := 6400, 64
	var hits int
	for i := 0; i < n; i++ {
		if Sampled(root, i, rate) {
			hits++
		}
		if Sampled(root, i, rate) != Sampled(root, i, rate) {
			t.Fatal("Sampled not pure")
		}
	}
	// Expect ~100; a 3x band catches derivation bugs without flaking.
	if hits < 33 || hits > 300 {
		t.Fatalf("sampled %d of %d at 1/%d", hits, n, rate)
	}
	if !Sampled(root, 7, 1) {
		t.Fatal("rate 1 must sample everything")
	}
	if Sampled(root, 7, 0) {
		t.Fatal("rate 0 must sample nothing at the Sampled level")
	}
}

// buildTree runs a tiny synthetic operation twice and asserts the
// deterministic tree is identical.
func buildTree() []Span {
	tr := New("deadbeef", "POST /jobs", Config{SampleRate: 1})
	tr.SetJobName("fleet test/cell")
	ft := tr.Fleet(3)
	for i := 0; i < 3; i++ {
		dt := ft.Device(i)
		dt.Phase(PhaseMeterFlush, 0, 1000, 2.5)
		dt.Phase(PhaseWatchdogWindow, 1000, 2000, 0)
		dt.Accrue(hw.Interval{From: 2000, To: 3000, ScreenJ: 1, SystemJ: 2})
		ft.Finish(i, dt, 5000)
	}
	return tr.Spans()
}

func TestSpanTreeDeterministicAndNested(t *testing.T) {
	a, b := buildTree(), buildTree()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("span trees differ:\n%s\n%s", aj, bj)
	}

	byID := map[SpanID]Span{}
	var roots int
	for _, s := range a {
		byID[s.ID] = s
	}
	for _, s := range a {
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %v (%s) has unknown parent %v", s.ID, s.Name, s.Parent)
		}
		if s.Kind == KindPhase || s.Kind == KindDevice {
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %s [%d,%d] escapes parent %s [%d,%d]",
					s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("tree has %d roots, want 1", roots)
	}
	// request → job → 1 shard → 3 devices → 9 phases
	if len(a) != 1+1+1+3+9 {
		t.Fatalf("tree has %d spans, want 15", len(a))
	}
	// Job/request windows roll up to the max device end.
	if a[0].End != 5000 || a[1].End != 5000 {
		t.Fatalf("rollup ends = %d, %d, want 5000", a[0].End, a[1].End)
	}
}

func TestDeviceTracerCapDropsNew(t *testing.T) {
	tr := New("cap", "POST /jobs", Config{SampleRate: 1})
	ft := tr.Fleet(1)
	dt := ft.Device(0)
	for k := 0; k < DefaultMaxSpansPerDevice+6; k++ {
		dt.Phase(PhaseMeterFlush, sim.Time(k), sim.Time(k+1), 0)
	}
	if dt.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", dt.Dropped())
	}
	ft.Finish(0, dt, DefaultMaxSpansPerDevice+6)
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("tracer dropped = %d, want 6", got)
	}
}

func TestNilDeviceTracerIsInert(t *testing.T) {
	var dt *DeviceTracer
	dt.Phase(PhaseMeterFlush, 0, 1, 0) // must not panic
	dt.Accrue(hw.Interval{})
	if dt.Dropped() != 0 {
		t.Fatal("nil tracer dropped != 0")
	}
	var ft *FleetTrace
	if ft.Device(3) != nil {
		t.Fatal("nil fleet trace handed out a device tracer")
	}
	ft.Finish(3, nil, 0)
}

// TestUnsampledDevicesTraceControlPlaneOnly: a fleet whose devices all
// finish with nil tracers (the unsampled path) still yields the
// control-plane tree, with the job window rolled up to the last device.
func TestUnsampledDevicesTraceControlPlaneOnly(t *testing.T) {
	tr := New("off", "POST /jobs", Config{})
	ft := tr.Fleet(2)
	ft.Finish(0, nil, 100)
	ft.Finish(1, nil, 200)
	spans := tr.Spans()
	if len(spans) != 3 { // request, job, shard-0
		t.Fatalf("unsampled tree has %d spans, want 3", len(spans))
	}
	if spans[0].End != 200 {
		t.Fatalf("rollup end = %d, want 200", spans[0].End)
	}
}
