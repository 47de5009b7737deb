package hw

import (
	"math"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
)

func tailFixture(t *testing.T) (*sim.Engine, *Meter, map[app.UID]float64) {
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
	wifiJ := map[app.UID]float64{}
	m.AddSink(SinkFunc(func(iv Interval) {
		iv.EachApp(func(uid app.UID, u *UsageRow) {
			wifiJ[uid] += u.J(WiFi)
		})
	}))
	return e, m, wifiJ
}

func TestWiFiTailBillsLowPower(t *testing.T) {
	e, m, wifiJ := tailFixture(t)
	p := Nexus4()
	if err := m.Hold(WiFi, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(WiFi, 5); err != nil {
		t.Fatal(err)
	}
	if !m.InWiFiTail(5) {
		t.Fatal("release should enter tail state")
	}
	// Run well past the tail; only WiFiTail seconds of low power accrue.
	if err := e.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if m.InWiFiTail(5) {
		t.Fatal("tail should have expired")
	}
	want := p.WiFiHigh/1000*10 + p.WiFiLow/1000*p.WiFiTail.Seconds()
	if math.Abs(wifiJ[5]-want) > 1e-9 {
		t.Fatalf("wifi energy = %v, want %v", wifiJ[5], want)
	}
}

func TestWiFiTailSplitsIntervalExactly(t *testing.T) {
	// A single long Flush spanning the tail expiry must charge exactly
	// WiFiTail seconds of tail, not the whole span.
	e, m, wifiJ := tailFixture(t)
	p := Nexus4()
	if err := m.Hold(WiFi, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(WiFi, 7); err != nil {
		t.Fatal(err)
	}
	// One uninterrupted hour with no intermediate flushes.
	if err := e.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	want := p.WiFiLow / 1000 * p.WiFiTail.Seconds()
	if math.Abs(wifiJ[7]-want) > 1e-9 {
		t.Fatalf("tail energy = %v, want %v (interval not split)", wifiJ[7], want)
	}
}

func TestWiFiReholdCancelsTail(t *testing.T) {
	e, m, wifiJ := tailFixture(t)
	p := Nexus4()
	if err := m.Hold(WiFi, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(WiFi, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// Radio goes high again before the tail expires.
	if err := m.Hold(WiFi, 3); err != nil {
		t.Fatal(err)
	}
	if m.InWiFiTail(3) {
		t.Fatal("re-hold should cancel the tail")
	}
	if err := e.RunFor(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	want := p.WiFiLow/1000*1 + p.WiFiHigh/1000*4
	if math.Abs(wifiJ[3]-want) > 1e-9 {
		t.Fatalf("wifi energy = %v, want %v", wifiJ[3], want)
	}
}

func TestSuspendKillsTails(t *testing.T) {
	e, m, wifiJ := tailFixture(t)
	if err := m.Hold(WiFi, 9); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(WiFi, 9); err != nil {
		t.Fatal(err)
	}
	m.SetSuspended(true)
	if m.InWiFiTail(9) {
		t.Fatal("suspend should clear tails")
	}
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if wifiJ[9] != 0 {
		t.Fatalf("suspended tail accrued %v", wifiJ[9])
	}
}

func TestTailVisibleInInstantPower(t *testing.T) {
	_, m, _ := tailFixture(t)
	p := Nexus4()
	base := m.InstantPowerMW()
	if err := m.Hold(WiFi, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(WiFi, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.InstantPowerMW(); math.Abs(got-(base+p.WiFiLow)) > 1e-9 {
		t.Fatalf("instant power = %v, want %v", got, base+p.WiFiLow)
	}
	if got := m.InstantAppPowerMW(1); math.Abs(got-p.WiFiLow) > 1e-9 {
		t.Fatalf("instant app power = %v, want %v", got, p.WiFiLow)
	}
}

func TestZeroTailProfileSkipsTail(t *testing.T) {
	e := sim.NewEngine()
	b, _ := NewBattery(NexusBatteryJ)
	prof := Nexus4()
	prof.WiFiTail = 0
	m, err := NewMeter(e.Now, prof, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Hold(WiFi, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(WiFi, 2); err != nil {
		t.Fatal(err)
	}
	if m.InWiFiTail(2) {
		t.Fatal("zero-tail profile should not enter tail state")
	}
}

func TestNegativeTailRejected(t *testing.T) {
	p := Nexus4()
	p.WiFiTail = -time.Second
	if err := p.Validate(); err == nil {
		t.Fatal("negative tail accepted")
	}
}
