package hw

import (
	"testing"
	"time"

	"repro/internal/app"
)

// TestChangeTokenMovesOnEveryMutator: every exported mutator leaves the
// change token reporting "may have changed", also the second of two
// mutations at one instant, while calls with no mutation between them
// keep it steady.
func TestChangeTokenMovesOnEveryMutator(t *testing.T) {
	const uid = app.FirstAppUID
	for _, c := range []struct {
		name   string
		setup  func(m *Meter) error
		mutate [2]func(m *Meter) error // run in order at one instant
	}{
		{"SetSuspended", nil, [2]func(*Meter) error{
			func(m *Meter) error { m.SetSuspended(true); return nil },
			func(m *Meter) error { m.SetSuspended(false); return nil },
		}},
		{"SetScreen", nil, [2]func(*Meter) error{
			func(m *Meter) error { m.SetScreen(true); return nil },
			func(m *Meter) error { m.SetScreen(false); return nil },
		}},
		{"SetScreenDim", func(m *Meter) error { m.SetScreen(true); return nil }, [2]func(*Meter) error{
			func(m *Meter) error { m.SetScreenDim(true); return nil },
			func(m *Meter) error { m.SetScreenDim(false); return nil },
		}},
		{"SetBrightness", nil, [2]func(*Meter) error{
			func(m *Meter) error { m.SetBrightness(200); return nil },
			func(m *Meter) error { m.SetBrightness(10); return nil },
		}},
		{"SetCPUUtil", nil, [2]func(*Meter) error{
			func(m *Meter) error { m.SetCPUUtil(uid, 0.4); return nil },
			func(m *Meter) error { m.SetCPUUtil(uid, 0.1); return nil },
		}},
		{"Hold", nil, [2]func(*Meter) error{
			func(m *Meter) error { return m.Hold(Camera, uid) },
			func(m *Meter) error { return m.Hold(GPS, uid) },
		}},
		{"Release", func(m *Meter) error {
			if err := m.Hold(Camera, uid); err != nil {
				return err
			}
			return m.Hold(GPS, uid)
		}, [2]func(*Meter) error{
			func(m *Meter) error { return m.Release(Camera, uid) },
			func(m *Meter) error { return m.Release(GPS, uid) },
		}},
		{"Flush", nil, [2]func(*Meter) error{
			func(m *Meter) error { m.Flush(); return nil },
			func(m *Meter) error { m.Flush(); return nil },
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, m, _ := testMeter(t)
			if c.setup != nil {
				if err := c.setup(m); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			tok, steady := m.ChangeToken()
			if again, s := m.ChangeToken(); !steady || !s || again != tok {
				t.Fatalf("untouched meter: token %d steady %v, then %d steady %v", tok, steady, again, s)
			}
			for i, mutate := range c.mutate {
				if err := mutate(m); err != nil {
					t.Fatal(err)
				}
				next, steady := m.ChangeToken()
				if steady && next == tok {
					t.Fatalf("mutation %d at %v left the token steady at %d", i, e.Now(), tok)
				}
				tok = next
			}
		})
	}
}

// TestChangeTokenUnsteadyWhileTailLive: after a WiFi release with a
// tail, every call reports "may have changed" until a setter drops the
// tail, also once the tail has expired in time but none has run yet.
func TestChangeTokenUnsteadyWhileTailLive(t *testing.T) {
	const uid = app.FirstAppUID
	tail := Nexus4().WiFiTail
	for _, c := range []struct {
		name string
		at   time.Duration // how far into the tail the drop runs
		drop func(m *Meter) error
	}{
		{"Flush after expiry", tail + 2*time.Second, func(m *Meter) error { m.Flush(); return nil }},
		{"SetSuspended mid-tail", time.Second, func(m *Meter) error { m.SetSuspended(true); return nil }},
		{"re-Hold mid-tail", time.Second, func(m *Meter) error { return m.Hold(WiFi, uid) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, m, _ := testMeter(t)
			if err := m.Hold(WiFi, uid); err != nil {
				t.Fatal(err)
			}
			if err := e.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			if err := m.Release(WiFi, uid); err != nil {
				t.Fatal(err)
			}
			for step := time.Duration(0); step <= c.at; step += 500 * time.Millisecond {
				if step > 0 {
					if err := e.RunFor(500 * time.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
				for range 2 {
					if tok, steady := m.ChangeToken(); steady {
						t.Fatalf("%v into the tail: token %d reports steady", step, tok)
					}
				}
			}
			if c.at > tail && m.InWiFiTail(uid) {
				t.Fatal("tail still live after its expiry")
			}
			if err := c.drop(m); err != nil {
				t.Fatal(err)
			}
			tok, steady := m.ChangeToken()
			if again, s := m.ChangeToken(); !steady || !s || again != tok {
				t.Fatalf("tail dropped: token %d steady %v, then %d steady %v", tok, steady, again, s)
			}
		})
	}
}
