package powersig

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/sim"
)

// TestSteadyTickStoresOneFrame pins the steady tick: after warm-up,
// 1,000 ticks over unchanged app powers repeat one stored frame and
// allocate nothing, both when no setter runs (the tick skips the meter
// pass) and when a flush between ticks moves the meter's change token
// (the tick reads the meter and finds the frame unchanged).
func TestSteadyTickStoresOneFrame(t *testing.T) {
	for _, flushEachTick := range []bool{false, true} {
		e := sim.NewEngine()
		b, err := hw.NewBattery(hw.NexusBatteryJ)
		if err != nil {
			t.Fatal(err)
		}
		m, err := hw.NewMeter(e.Now, hw.Nexus4(), b)
		if err != nil {
			t.Fatal(err)
		}
		pm := app.NewPackageManager()
		var uids []app.UID
		for _, pkg := range []string{"com.example.busy", "com.example.camera", "com.example.idle"} {
			uids = append(uids, pm.MustInstall(&manifest.Manifest{Package: pkg}).UID)
		}
		m.SetCPUUtil(uids[0], 0.3)
		if err := m.Hold(hw.Camera, uids[1]); err != nil {
			t.Fatal(err)
		}
		d, err := NewDetector(e, m, pm, 0)
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		if flushEachTick {
			e.Every(time.Second, "flush", m.Flush)
		}
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun warms up with one untimed run of the same 1,000
		// ticks before the measured one.
		allocs := testing.AllocsPerRun(1, func() {
			if err := e.RunFor(1000 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("flush each tick %v: 1,000 steady ticks allocated %v times, want 0", flushEachTick, allocs)
		}
		const ticks = 10 + 2*1000
		if len(d.segs) != 1 || len(d.segs[0].repeats) != 1 || d.segs[0].repeats[0] != ticks {
			t.Errorf("flush each tick %v: trace holds %d segments, first with repeats %v; want one frame repeated %d times",
				flushEachTick, len(d.segs), d.segs[0].repeats, ticks)
		}
		for _, uid := range uids {
			if n := d.TraceLen(uid); n != ticks {
				t.Errorf("flush each tick %v: TraceLen(%d) = %d, want %d", flushEachTick, uid, n, ticks)
			}
		}
	}
}
