package scenario

import (
	"sync"
	"testing"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/telemetry"
)

// TestWorldOptionsConcurrent hammers the process-default options from
// several goroutines while worlds are being built. Unguarded process
// defaults race with NewWorld under exactly this pattern (a fleet
// building worlds while a CLI flips a flag); the test exists to fail
// under -race if the guard regresses.
func TestWorldOptionsConcurrent(t *testing.T) {
	prev := SetWorldOptions(WorldOptions{})
	defer SetWorldOptions(prev)

	const iters = 25
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			SetWorldOptions(WorldOptions{Checks: &check.Options{}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			SetWorldOptions(WorldOptions{Hook: func(*device.Device) {}})
			_ = DefaultWorldOptions()
		}
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				w, err := NewWorld(device.Config{EAndroid: true, Policy: accounting.BatteryStats})
				if err != nil {
					t.Error(err)
					return
				}
				_ = w
			}
		}()
	}
	wg.Wait()
}

// TestNewWorldWithExplicitOptions checks that explicit options reach
// the built device and that config-level settings win over them.
func TestNewWorldWithExplicitOptions(t *testing.T) {
	rec := telemetry.New(telemetry.Options{})
	hooked := false
	w, err := NewWorldWith(device.Config{EAndroid: true}, WorldOptions{
		Telemetry: rec,
		Checks:    &check.Options{},
		Hook:      func(*device.Device) { hooked = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Fatal("construction hook did not run")
	}
	if w.Dev.Telemetry != rec {
		t.Fatal("explicit telemetry recorder not threaded into the device")
	}

	own := telemetry.New(telemetry.Options{})
	w2, err := NewWorldWith(device.Config{EAndroid: true, Telemetry: own},
		WorldOptions{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Dev.Telemetry != own {
		t.Fatal("config-level recorder should win over options")
	}
}
