package hw

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
)

func testMeter(t *testing.T) (*sim.Engine, *Meter, *Battery) {
	t.Helper()
	e := sim.NewEngine()
	b, err := NewBattery(NexusBatteryJ)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeter(e.Now, Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	return e, m, b
}

func approx(t *testing.T, got, want, tol float64, label string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (±%v)", label, got, want, tol)
	}
}

func TestProfileValidate(t *testing.T) {
	if err := Nexus4().Validate(); err != nil {
		t.Fatal(err)
	}
	p := Nexus4()
	p.CameraOn = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative coefficient accepted")
	}
	p = Nexus4()
	p.CPUSuspend = p.CPUIdleAwake + 1
	if err := p.Validate(); err == nil {
		t.Fatal("suspend > idle accepted")
	}
	p = Nexus4()
	p.WiFiLow = p.WiFiHigh + 1
	if err := p.Validate(); err == nil {
		t.Fatal("wifi low > high accepted")
	}
}

func TestScreenPowerClamps(t *testing.T) {
	p := Nexus4()
	if p.ScreenPower(-5) != p.ScreenBase {
		t.Fatal("negative brightness not clamped")
	}
	if p.ScreenPower(9999) != p.ScreenBase+255*p.ScreenPerLevel {
		t.Fatal("overlarge brightness not clamped")
	}
}

func TestComponentString(t *testing.T) {
	if CPU.String() != "cpu" || Screen.String() != "screen" || Audio.String() != "audio" {
		t.Fatal("component names wrong")
	}
	if Component(0).String() == "cpu" {
		t.Fatal("zero component should not be cpu")
	}
	if len(Components()) != 6 {
		t.Fatalf("Components() = %v", Components())
	}
}

func TestBattery(t *testing.T) {
	b, err := NewBattery(100)
	if err != nil {
		t.Fatal(err)
	}
	if b.Percent() != 100 || b.Dead() {
		t.Fatal("new battery should be full")
	}
	if err := b.Drain(-1); err == nil {
		t.Fatal("negative drain accepted")
	}
	if err := b.Drain(40); err != nil {
		t.Fatal(err)
	}
	approx(t, b.Percent(), 60, 1e-9, "Percent")
	if err := b.Drain(1000); err != nil {
		t.Fatal(err)
	}
	if !b.Dead() || b.Percent() != 0 || b.RemainingJ() != 0 {
		t.Fatal("overdrain should clamp to empty")
	}
	if b.CapacityJ() != 100 || b.DrainedJ() != 100 {
		t.Fatal("capacity accounting wrong")
	}
	if _, err := NewBattery(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestMeterConstructorValidation(t *testing.T) {
	b, _ := NewBattery(1)
	if _, err := NewMeter(nil, Nexus4(), b); err == nil {
		t.Fatal("nil clock accepted")
	}
	e := sim.NewEngine()
	bad := Nexus4()
	bad.CPUFull = -1
	if _, err := NewMeter(e.Now, bad, b); err == nil {
		t.Fatal("bad profile accepted")
	}
	if _, err := NewMeter(e.Now, Nexus4(), nil); err == nil {
		t.Fatal("nil battery accepted")
	}
}

func TestIdleAwakeBaseline(t *testing.T) {
	e, m, b := testMeter(t)
	var sysJ float64
	m.AddSink(SinkFunc(func(iv Interval) { sysJ += iv.SystemJ }))
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	want := Nexus4().CPUIdleAwake / 1000 * 10
	approx(t, sysJ, want, 1e-9, "system energy")
	approx(t, b.DrainedJ(), want, 1e-9, "battery drain")
}

func TestSuspendDrawsSuspendPower(t *testing.T) {
	e, m, b := testMeter(t)
	m.SetSuspended(true)
	m.SetCPUUtil(42, 1.0) // halted while suspended: must not draw
	if err := m.Hold(Camera, 42); err != nil {
		t.Fatal(err)
	}
	m.SetScreen(true)
	if err := e.RunFor(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	want := Nexus4().CPUSuspend / 1000 * 100
	approx(t, b.DrainedJ(), want, 1e-9, "suspended drain")
}

func TestCPUUtilAttribution(t *testing.T) {
	e, m, _ := testMeter(t)
	per := map[app.UID]float64{}
	m.AddSink(SinkFunc(func(iv Interval) {
		iv.EachApp(func(uid app.UID, u *UsageRow) {
			per[uid] += u.J(CPU)
		})
	}))
	m.SetCPUUtil(100, 0.5)
	m.SetCPUUtil(200, 0.25)
	if err := e.RunFor(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.SetCPUUtil(100, 0) // app stops
	if err := e.RunFor(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	p := Nexus4()
	approx(t, per[100], 0.5*p.CPUFull/1000*8, 1e-9, "uid 100 cpu")
	approx(t, per[200], 0.25*p.CPUFull/1000*16, 1e-9, "uid 200 cpu")
}

func TestCPUUtilClamped(t *testing.T) {
	_, m, _ := testMeter(t)
	m.SetCPUUtil(1, 7.5)
	if got := m.CPUUtil(1); got != 1 {
		t.Fatalf("util = %v, want clamped 1", got)
	}
	m.SetCPUUtil(1, -3)
	if got := m.CPUUtil(1); got != 0 {
		t.Fatalf("util = %v, want clamped 0", got)
	}
}

func TestScreenEnergySeparate(t *testing.T) {
	e, m, _ := testMeter(t)
	var screenJ float64
	m.AddSink(SinkFunc(func(iv Interval) { screenJ += iv.ScreenJ }))
	m.SetScreen(true)
	m.SetBrightness(255)
	if err := e.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.SetScreen(false)
	if err := e.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	want := Nexus4().ScreenPower(255) / 1000 * 30
	approx(t, screenJ, want, 1e-9, "screen energy")
}

func TestBrightnessChangeMidRun(t *testing.T) {
	e, m, _ := testMeter(t)
	var screenJ float64
	m.AddSink(SinkFunc(func(iv Interval) { screenJ += iv.ScreenJ }))
	m.SetScreen(true)
	m.SetBrightness(0)
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.SetBrightness(255)
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	p := Nexus4()
	want := (p.ScreenPower(0) + p.ScreenPower(255)) / 1000 * 10
	approx(t, screenJ, want, 1e-9, "screen energy across brightness change")
}

func TestBrightnessClamped(t *testing.T) {
	_, m, _ := testMeter(t)
	m.SetBrightness(500)
	if m.Brightness() != 255 {
		t.Fatalf("brightness = %d", m.Brightness())
	}
	m.SetBrightness(-4)
	if m.Brightness() != 0 {
		t.Fatalf("brightness = %d", m.Brightness())
	}
}

func TestPeripheralHolds(t *testing.T) {
	e, m, _ := testMeter(t)
	per := map[app.UID]Usage{}
	m.AddSink(SinkFunc(func(iv Interval) {
		iv.EachApp(func(uid app.UID, u *UsageRow) {
			if per[uid] == nil {
				per[uid] = make(Usage)
			}
			per[uid].Add(u.Usage())
		})
	}))
	if err := m.Hold(Camera, 7); err != nil {
		t.Fatal(err)
	}
	if !m.Holding(Camera, 7) {
		t.Fatal("Holding should be true")
	}
	if err := e.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(Camera, 7); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	want := Nexus4().CameraOn / 1000 * 30
	approx(t, per[7][Camera], want, 1e-9, "camera energy")
}

func TestPeripheralSharedHoldSplitsEnergy(t *testing.T) {
	e, m, _ := testMeter(t)
	per := map[app.UID]float64{}
	m.AddSink(SinkFunc(func(iv Interval) {
		iv.EachApp(func(uid app.UID, u *UsageRow) {
			per[uid] += u.J(GPS)
		})
	}))
	if err := m.Hold(GPS, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Hold(GPS, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	each := Nexus4().GPSOn / 1000 * 10 / 2
	approx(t, per[1], each, 1e-9, "uid1 gps share")
	approx(t, per[2], each, 1e-9, "uid2 gps share")
}

func TestHoldErrors(t *testing.T) {
	_, m, _ := testMeter(t)
	if err := m.Hold(CPU, 1); err == nil {
		t.Fatal("holding CPU should fail")
	}
	if err := m.Release(Screen, 1); err == nil {
		t.Fatal("releasing Screen should fail")
	}
	if err := m.Release(Camera, 1); err == nil {
		t.Fatal("release without hold should fail")
	}
}

func TestNestedHolds(t *testing.T) {
	e, m, _ := testMeter(t)
	if err := m.Hold(WiFi, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Hold(WiFi, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(WiFi, 3); err != nil {
		t.Fatal(err)
	}
	if !m.Holding(WiFi, 3) {
		t.Fatal("nested hold released too early")
	}
	if err := m.Release(WiFi, 3); err != nil {
		t.Fatal(err)
	}
	if m.Holding(WiFi, 3) {
		t.Fatal("hold not released")
	}
	_ = e
}

func TestInstantPowerMW(t *testing.T) {
	_, m, _ := testMeter(t)
	p := Nexus4()
	approx(t, m.InstantPowerMW(), p.CPUIdleAwake, 1e-9, "idle power")
	m.SetScreen(true)
	m.SetBrightness(100)
	m.SetCPUUtil(1, 0.5)
	want := p.CPUIdleAwake + p.ScreenPower(100) + 0.5*p.CPUFull
	approx(t, m.InstantPowerMW(), want, 1e-9, "active power")
	m.SetSuspended(true)
	approx(t, m.InstantPowerMW(), p.CPUSuspend, 1e-9, "suspend power")
}

func TestUIDs(t *testing.T) {
	_, m, _ := testMeter(t)
	m.SetCPUUtil(30, 0.1)
	if err := m.Hold(Audio, 10); err != nil {
		t.Fatal(err)
	}
	got := m.UIDs()
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("UIDs = %v", got)
	}
}

func TestUsageHelpers(t *testing.T) {
	u := Usage{CPU: 1, Screen: 2}
	if u.Total() != 3 {
		t.Fatalf("Total = %v", u.Total())
	}
	c := u.Clone()
	c[CPU] = 100
	if u[CPU] != 1 {
		t.Fatal("Clone aliases source")
	}
	u.Add(Usage{CPU: 4})
	if u[CPU] != 5 {
		t.Fatalf("Add: cpu = %v", u[CPU])
	}
}

// Property: battery drain always equals the sum of energy delivered to
// sinks, for arbitrary interleavings of state changes.
func TestPropertyBatteryMatchesSinkTotal(t *testing.T) {
	prop := func(ops []uint8) bool {
		e := sim.NewEngine()
		b, _ := NewBattery(1e12)
		m, _ := NewMeter(e.Now, Nexus4(), b)
		var sunk float64
		m.AddSink(SinkFunc(func(iv Interval) {
			iv.EachApp(func(_ app.UID, u *UsageRow) {
				sunk += u.Total()
			})
			sunk += iv.ScreenJ + iv.SystemJ
		}))
		for _, op := range ops {
			if err := e.RunFor(time.Duration(op%50) * time.Second); err != nil {
				return false
			}
			switch op % 7 {
			case 0:
				m.SetScreen(!m.ScreenOn())
			case 1:
				m.SetBrightness(int(op) * 2)
			case 2:
				m.SetCPUUtil(app.UID(op%3), float64(op%10)/10)
			case 3:
				_ = m.Hold(Camera, app.UID(op%3))
			case 4:
				_ = m.Release(Camera, app.UID(op%3)) // may error; fine
			case 5:
				m.SetSuspended(!m.Suspended())
			case 6:
				m.Flush()
			}
		}
		m.Flush()
		return math.Abs(sunk-b.DrainedJ()) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy over any interval is non-negative for every bucket.
func TestPropertyNonNegativeEnergy(t *testing.T) {
	prop := func(bright uint8, util float64, secs uint8) bool {
		e := sim.NewEngine()
		b, _ := NewBattery(1e12)
		m, _ := NewMeter(e.Now, Nexus4(), b)
		ok := true
		m.AddSink(SinkFunc(func(iv Interval) {
			if iv.ScreenJ < 0 || iv.SystemJ < 0 {
				ok = false
			}
			iv.EachApp(func(_ app.UID, u *UsageRow) {
				for c := CPU; c <= Audio; c++ {
					if u.J(c) < 0 {
						ok = false
					}
				}
			})
		}))
		m.SetScreen(true)
		m.SetBrightness(int(bright))
		m.SetCPUUtil(1, util)
		if err := e.RunFor(time.Duration(secs) * time.Second); err != nil {
			return false
		}
		m.Flush()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
