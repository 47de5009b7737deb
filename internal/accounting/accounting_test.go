package accounting

import (
	"math"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/sim"
)

func run(t *testing.T, policy Policy, script func(e *sim.Engine, m *hw.Meter, a *Accountant)) *Accountant {
	t.Helper()
	e := sim.NewEngine()
	b, err := hw.NewBattery(hw.NexusBatteryJ)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hw.NewMeter(e.Now, hw.Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(policy)
	if err != nil {
		t.Fatal(err)
	}
	m.AddSink(a)
	script(e, m, a)
	m.Flush()
	return a
}

func approx(t *testing.T, got, want float64, label string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %v, want %v", label, got, want)
	}
}

func TestNewRejectsInvalidPolicy(t *testing.T) {
	if _, err := New(Policy(0)); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if BatteryStats.String() != "batterystats" || PowerTutor.String() != "powertutor" {
		t.Fatal("policy names")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy stringer")
	}
}

func TestBatteryStatsKeepsScreenSeparate(t *testing.T) {
	a := run(t, BatteryStats, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
		a.SetForeground(100)
		m.SetScreen(true)
		m.SetBrightness(255)
		m.SetCPUUtil(100, 0.5)
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	p := hw.Nexus4()
	approx(t, a.ScreenJ(), p.ScreenPower(255)/1000*10, "screen bucket")
	approx(t, a.AppJ(100), 0.5*p.CPUFull/1000*10, "app energy excludes screen")
	if row := a.AppRow(100); row.J(hw.Screen) != 0 {
		t.Fatal("BatteryStats must not charge screen to app")
	}
}

func TestPowerTutorChargesForeground(t *testing.T) {
	a := run(t, PowerTutor, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
		a.SetForeground(100)
		m.SetScreen(true)
		m.SetBrightness(255)
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		m.Flush()
		a.SetForeground(200)
		if err := e.RunFor(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	p := hw.Nexus4()
	perSec := p.ScreenPower(255) / 1000
	fg1, fg2 := a.AppRow(100), a.AppRow(200)
	approx(t, fg1.J(hw.Screen), perSec*10, "fg app 1 screen")
	approx(t, fg2.J(hw.Screen), perSec*5, "fg app 2 screen")
	approx(t, a.ScreenJ(), 0, "no separate bucket")
}

func TestPowerTutorNoForegroundFallsBack(t *testing.T) {
	a := run(t, PowerTutor, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
		m.SetScreen(true)
		if err := e.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if a.ScreenJ() == 0 {
		t.Fatal("screen energy with no foreground should land in the bucket")
	}
}

func TestSystemBucket(t *testing.T) {
	a := run(t, BatteryStats, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	approx(t, a.SystemJ(), hw.Nexus4().CPUIdleAwake/1000*10, "system bucket")
}

func TestTotalMatchesBattery(t *testing.T) {
	e := sim.NewEngine()
	b, _ := hw.NewBattery(hw.NexusBatteryJ)
	m, _ := hw.NewMeter(e.Now, hw.Nexus4(), b)
	a, _ := New(BatteryStats)
	m.AddSink(a)
	m.SetScreen(true)
	m.SetCPUUtil(1, 0.3)
	m.SetCPUUtil(2, 0.6)
	if err := e.RunFor(42 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	approx(t, a.TotalJ(), b.DrainedJ(), "accountant total vs battery")
}

func TestEntriesSortedAndComplete(t *testing.T) {
	a := run(t, BatteryStats, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
		m.SetScreen(true)
		m.SetBrightness(255)
		m.SetCPUUtil(100, 0.9)
		m.SetCPUUtil(200, 0.1)
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	entries := a.Entries()
	if len(entries) != 4 { // 2 apps + screen + system
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].TotalJ > entries[i-1].TotalJ {
			t.Fatal("entries not sorted descending")
		}
	}
	// Screen at 255 beats everything else in this setup.
	if entries[0].UID != app.UIDScreen {
		t.Fatalf("top entry = %v, want screen", entries[0].UID)
	}
}

func TestShares(t *testing.T) {
	a := run(t, BatteryStats, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
		m.SetScreen(true)
		m.SetCPUUtil(100, 0.5)
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	sum := a.Share(100) + a.Share(app.UIDScreen) + a.Share(app.UIDSystem)
	approx(t, sum, 1, "shares sum to 1")
	empty, _ := New(BatteryStats)
	if empty.Share(1) != 0 {
		t.Fatal("share of empty accountant should be 0")
	}
}

func TestAppRowCopies(t *testing.T) {
	a := run(t, BatteryStats, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
		m.SetCPUUtil(1, 0.5)
		if err := e.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	u := a.AppRow(1)
	u.Add(hw.CPU, 99999)
	if again := a.AppRow(1); again.J(hw.CPU) >= 99999 {
		t.Fatal("AppRow must return a copy")
	}
	if got := a.AppRow(42); got != (hw.UsageRow{}) {
		t.Fatal("unknown app row should be zero")
	}
}

// Entries allocates only the returned slice: rows carry no per-component
// map and the sort needs no reflection.
func TestEntriesAllocatesOnlyItsSlice(t *testing.T) {
	a := run(t, BatteryStats, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
		m.SetScreen(true)
		for uid := app.UID(100); uid < 105; uid++ {
			m.SetCPUUtil(uid, 0.1*float64(uid-99))
		}
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if n := len(a.Entries()); n != 7 { // 5 apps + screen + system
		t.Fatalf("entries = %d, want 7", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = a.Entries() }); allocs > 1 {
		t.Fatalf("Entries allocated %v times on a 7-row ledger, want at most 1", allocs)
	}
}

// Entries has one row per UID, however many intervals charged it: the
// fleet's harvest carries these rows as a device's ledger, and the
// fleet total sums each UID once per device in device order, so a
// second row for a UID would change that float-sum order.
func TestEntriesOneRowPerUID(t *testing.T) {
	for _, policy := range []Policy{BatteryStats, PowerTutor} {
		a := run(t, policy, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
			m.SetScreen(true)
			for step := 0; step < 12; step++ {
				uid := app.UID(100 + step%4)
				a.SetForeground(uid)
				m.SetCPUUtil(uid, 0.2)
				m.SetCPUUtil(app.UID(100+(step+1)%4), 0.05*float64(step%3))
				if err := e.RunFor(5 * time.Second); err != nil {
					t.Fatal(err)
				}
				m.SetScreen(step%3 != 0)
			}
		})
		seen := make(map[app.UID]bool)
		for _, e := range a.Entries() {
			if seen[e.UID] {
				t.Fatalf("%v: uid %d has more than one row: %+v", policy, e.UID, a.Entries())
			}
			seen[e.UID] = true
		}
		if len(seen) < 5 {
			t.Fatalf("%v: %d rows, want the 4 apps and the system entry at least", policy, len(seen))
		}
	}
}

func TestTimeStats(t *testing.T) {
	a := run(t, BatteryStats, func(e *sim.Engine, m *hw.Meter, a *Accountant) {
		a.SetForeground(100)
		m.SetScreen(true)
		if err := e.RunFor(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		m.Flush()
		a.SetForeground(200)
		m.SetScreen(false)
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if got := a.ForegroundTime(100); got != 20*time.Second {
		t.Fatalf("fg time uid 100 = %v", got)
	}
	if got := a.ForegroundTime(200); got != 10*time.Second {
		t.Fatalf("fg time uid 200 = %v", got)
	}
	if got := a.ScreenOnTime(); got != 20*time.Second {
		t.Fatalf("screen-on time = %v", got)
	}
}
