package network_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/network"
	"repro/internal/power"
)

func fixture(t *testing.T) (*device.Device, *app.App, *app.App) {
	t.Helper()
	dev, err := device.New(device.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := dev.Packages.MustInstall(manifest.NewBuilder("com.a", "A").
		Activity("Main", true).MustBuild())
	b := dev.Packages.MustInstall(manifest.NewBuilder("com.b", "B").
		Activity("Main", true).MustBuild())
	return dev, a, b
}

func TestDurationScalesWithPayload(t *testing.T) {
	dev, _, _ := fixture(t)
	small := dev.Network.Duration(1)
	big := dev.Network.Duration(100 << 20) // 100 MiB
	if small != 50*time.Millisecond {
		t.Fatalf("small transfer window = %v, want 50ms floor", small)
	}
	// 100 MiB at 20 Mbit/s ≈ 41.9 s.
	want := time.Duration(float64(100<<20*8) / network.DefaultBandwidthBps * float64(time.Second))
	if big != want {
		t.Fatalf("big transfer window = %v, want %v", big, want)
	}
	if dev.Network.Duration(0) != 50*time.Millisecond {
		t.Fatal("zero payload should cost the floor")
	}
}

func TestSendHoldsRadioThenTails(t *testing.T) {
	dev, a, _ := fixture(t)
	// 25 Mbit at 20 Mbit/s = 1.25 s window.
	tr, err := dev.Network.Send(a.UID, 25_000_000/8)
	if err != nil {
		t.Fatal(err)
	}
	if !dev.Meter.Holding(hw.WiFi, a.UID) {
		t.Fatal("radio should be high during transfer")
	}
	if err := dev.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !tr.Done() {
		t.Fatal("transfer should complete")
	}
	if dev.Meter.Holding(hw.WiFi, a.UID) {
		t.Fatal("radio should drop after transfer")
	}
	if !dev.Meter.InWiFiTail(a.UID) {
		t.Fatal("radio should ride the tail after transfer")
	}
}

func TestSendToBillsBothEndpoints(t *testing.T) {
	dev, a, b := fixture(t)
	if _, err := dev.Network.SendTo(a.UID, b.UID, 25_000_000/8); err != nil {
		t.Fatal(err)
	}
	if !dev.Meter.Holding(hw.WiFi, a.UID) || !dev.Meter.Holding(hw.WiFi, b.UID) {
		t.Fatal("both endpoints should hold the radio")
	}
	if err := dev.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	dev.Flush()
	// Radio energy split while both hold; both got WiFi energy.
	ra, rb := dev.Android.AppRow(a.UID), dev.Android.AppRow(b.UID)
	if ra.J(hw.WiFi) <= 0 || rb.J(hw.WiFi) <= 0 {
		t.Fatal("both endpoints should be billed radio energy")
	}
}

func TestSendToRevivesReceiver(t *testing.T) {
	dev, a, b := fixture(t)
	b.Kill()
	if _, err := dev.Network.SendTo(a.UID, b.UID, 100); err != nil {
		t.Fatal(err)
	}
	if !b.Alive() {
		t.Fatal("incoming traffic should revive the receiver")
	}
}

func TestSendValidation(t *testing.T) {
	dev, a, _ := fixture(t)
	if _, err := dev.Network.Send(999, 10); err == nil {
		t.Fatal("unknown sender accepted")
	}
	if _, err := dev.Network.SendTo(a.UID, 888, 10); err == nil {
		t.Fatal("unknown receiver accepted")
	}
	if _, err := dev.Network.Send(a.UID, -1); err == nil {
		t.Fatal("negative payload accepted")
	}
	a.Kill()
	if _, err := dev.Network.Send(a.UID, 10); err == nil {
		t.Fatal("dead sender accepted")
	}
	if err := dev.Network.SetBandwidth(0); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestActiveList(t *testing.T) {
	dev, a, b := fixture(t)
	if len(dev.Network.Active()) != 0 {
		t.Fatal("no transfers yet")
	}
	if _, err := dev.Network.SendTo(a.UID, b.UID, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Network.Send(a.UID, 10_000_000); err != nil {
		t.Fatal(err)
	}
	act := dev.Network.Active()
	if len(act) != 2 || act[0].Until > act[1].Until {
		t.Fatalf("active = %+v", act)
	}
}

func TestRepeatedRequestsKeepRadioWarm(t *testing.T) {
	// Requests every 2 s with a 3 s tail: the victim's radio never goes
	// fully cold — the classic attack's energy multiplier. A partial
	// wakelock keeps the platform out of deep sleep (the attacker's app
	// holds one, as real bombers do; a suspended platform would halt the
	// exchange entirely).
	dev, a, b := fixture(t)
	holder, err := dev.Packages.InstallSystem(manifest.NewBuilder("android.test.holder", "Holder").
		Activity("Main", true).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Power.Acquire(holder.UID, power.Partial, "bomb"); err != nil {
		t.Fatal(err)
	}
	if err := dev.Network.RepeatedRequests(a.UID, b.UID, 1000, 2*time.Second, 30); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(59 * time.Second); err != nil {
		t.Fatal(err)
	}
	dev.Flush()
	rb := dev.Android.AppRow(b.UID)
	bWiFi := rb.J(hw.WiFi)
	// Lower bound: the radio spent ≥55 of 60 s in (at least) the
	// low-power state on the victim's account.
	p := hw.Nexus4()
	if bWiFi < p.WiFiLow/1000*55 {
		t.Fatalf("victim radio energy = %v, radio went cold", bWiFi)
	}
	// And the baseline interface plainly shows the victim burning —
	// classic attacks are visible, unlike collateral ones.
	if dev.Android.AppJ(b.UID) <= 0 {
		t.Fatal("victim should be visible in the baseline")
	}
}

func TestRepeatedRequestsValidation(t *testing.T) {
	dev, a, b := fixture(t)
	if err := dev.Network.RepeatedRequests(a.UID, b.UID, 10, time.Second, 0); err == nil {
		t.Fatal("zero count accepted")
	}
	if err := dev.Network.RepeatedRequests(a.UID, b.UID, 10, 0, 3); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestEnergyPerTransferExact(t *testing.T) {
	dev, a, _ := fixture(t)
	p := hw.Nexus4()
	// One 1.25 s transfer then idle past the tail.
	window := dev.Network.Duration(25_000_000 / 8)
	if _, err := dev.Network.Send(a.UID, 25_000_000/8); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run(window + p.WiFiTail + time.Second); err != nil {
		t.Fatal(err)
	}
	dev.Flush()
	want := p.WiFiHigh/1000*window.Seconds() + p.WiFiLow/1000*p.WiFiTail.Seconds()
	ra := dev.Android.AppRow(a.UID)
	got := ra.J(hw.WiFi)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("transfer radio energy = %v, want %v", got, want)
	}
}

func TestNewManagerNilDeps(t *testing.T) {
	if _, err := network.NewManager(nil, nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}
