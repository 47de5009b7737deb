// Package accounting implements the two baseline energy-attribution
// policies the paper evaluates against:
//
//   - BatteryStats policy (Android's official battery interface): each
//     app is charged its own hardware energy; the screen is reported as
//     an independent pseudo-entry ("the energy consumed by screen is
//     always displayed in total").
//   - PowerTutor policy: screen energy is always allocated to the
//     foreground app ("the center of interacting with users").
//
// Neither policy sees IPC, which is exactly the blind spot E-Android
// (internal/core) fixes by layering collateral maps on top.
package accounting

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/telemetry"
)

// Policy selects a screen-attribution rule.
type Policy int

// The two baseline policies.
const (
	// BatteryStats reports screen energy as a separate entry.
	BatteryStats Policy = iota + 1
	// PowerTutor charges screen energy to the foreground app.
	PowerTutor
)

func (p Policy) String() string {
	switch p {
	case BatteryStats:
		return "batterystats"
	case PowerTutor:
		return "powertutor"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Entry is one row of a battery view: an app (or pseudo-entry) and its
// attributed energy.
type Entry struct {
	UID    app.UID
	TotalJ float64
}

// Accountant accumulates per-app energy under one baseline policy. It is
// an hw.Sink; wire it to the meter and feed it foreground changes.
type Accountant struct {
	policy     Policy
	foreground app.UID

	// own is the cumulative per-app ledger, kept dense: Accrue folds the
	// meter's borrowed interval table straight into it, row by row, with
	// no per-interval map or key-sort work. Nothing from the interval is
	// retained, honoring the sink borrow contract.
	own     *hw.UsageTable
	screenJ float64 // BatteryStats separate bucket
	systemJ float64

	// fgTime and screenOnTime are the usage-time statistics the real
	// BatteryStats reports alongside energy. The current foreground's
	// stretch runs in fgRun and is settled into fgTime when the
	// foreground changes, so an interval adds to one integer instead
	// of writing a map; integer durations sum exactly in any grouping.
	fgTime       map[app.UID]time.Duration
	fgRun        time.Duration
	screenOnTime time.Duration

	// tel receives per-interval attribution events and feeds the
	// per-UID energy distributions; nil costs one branch per interval.
	tel *telemetry.Recorder
}

// New returns an accountant for the given policy.
func New(policy Policy) (*Accountant, error) {
	if policy != BatteryStats && policy != PowerTutor {
		return nil, fmt.Errorf("accounting: invalid policy %d", int(policy))
	}
	return &Accountant{
		policy:     policy,
		foreground: app.UIDNone,
		own:        hw.NewUsageTable(),
		fgTime:     make(map[app.UID]time.Duration),
	}, nil
}

// Policy reports the attribution policy in force.
func (a *Accountant) Policy() Policy { return a.policy }

// SetTelemetry wires a telemetry recorder (nil detaches it).
func (a *Accountant) SetTelemetry(rec *telemetry.Recorder) { a.tel = rec }

// SetForeground records the current foreground app (drive this from the
// activity manager's ForegroundChanged hook).
func (a *Accountant) SetForeground(uid app.UID) {
	if uid == a.foreground {
		return
	}
	if a.fgRun != 0 {
		a.fgTime[a.foreground] += a.fgRun
		a.fgRun = 0
	}
	a.foreground = uid
}

// Foreground reports the last recorded foreground app.
func (a *Accountant) Foreground() app.UID { return a.foreground }

// ScreenOwner reports who is charged for screen energy right now: the
// foreground app under PowerTutor when one is set, and the UIDScreen
// pseudo-entry otherwise.
func (a *Accountant) ScreenOwner() app.UID {
	if a.policy == PowerTutor && a.foreground != app.UIDNone {
		return a.foreground
	}
	return app.UIDScreen
}

// Accrue implements hw.Sink.
func (a *Accountant) Accrue(iv hw.Interval) {
	if a.tel != nil {
		a.observeInterval(iv)
	}
	if a.foreground != app.UIDNone {
		a.fgRun += iv.Duration()
	}
	if iv.ScreenJ > 0 {
		a.screenOnTime += iv.Duration()
	}
	iv.EachApp(func(uid app.UID, row *hw.UsageRow) {
		a.own.Row(uid).AddRow(row)
	})
	a.systemJ += iv.SystemJ
	if iv.ScreenJ == 0 {
		return
	}
	if owner := a.ScreenOwner(); owner != app.UIDScreen {
		a.own.Row(owner).Add(hw.Screen, iv.ScreenJ)
	} else {
		a.screenJ += iv.ScreenJ
	}
}

// observeInterval records one attribution event per app charged in the
// interval. The interval table already iterates in sorted UID order, so
// the event stream (and the per-UID energy distributions it feeds) is
// deterministic with no per-interval key collection or sort.
func (a *Accountant) observeInterval(iv hw.Interval) {
	iv.EachApp(func(uid app.UID, row *hw.UsageRow) {
		a.tel.RecordAttribution(iv.To, uid, row.Total())
	})
	if iv.ScreenJ > 0 {
		a.tel.RecordAttribution(iv.To, a.ScreenOwner(), iv.ScreenJ)
	}
	if iv.SystemJ > 0 {
		a.tel.RecordAttribution(iv.To, app.UIDSystem, iv.SystemJ)
	}
}

// AppJ reports the energy attributed to one app under the policy.
func (a *Accountant) AppJ(uid app.UID) float64 {
	row := a.own.Get(uid)
	if row == nil {
		return 0
	}
	return row.Total()
}

// AppRow returns a copy of the per-component energy attributed to uid
// (the zero row when nothing was).
func (a *Accountant) AppRow(uid app.UID) hw.UsageRow {
	if row := a.own.Get(uid); row != nil {
		return *row
	}
	return hw.UsageRow{}
}

// ForegroundTime reports how long uid has held the foreground.
func (a *Accountant) ForegroundTime(uid app.UID) time.Duration {
	t := a.fgTime[uid]
	if uid == a.foreground {
		t += a.fgRun
	}
	return t
}

// ScreenOnTime reports cumulative display-on time.
func (a *Accountant) ScreenOnTime() time.Duration { return a.screenOnTime }

// ScreenJ reports energy in the separate screen bucket (always zero
// under PowerTutor unless nothing was ever foreground).
func (a *Accountant) ScreenJ() float64 { return a.screenJ }

// SystemJ reports platform base energy.
func (a *Accountant) SystemJ() float64 { return a.systemJ }

// TotalJ reports all energy seen by the accountant, summed in a fixed
// order (screen, system, then ascending UID).
func (a *Accountant) TotalJ() float64 {
	t := a.screenJ + a.systemJ
	t += a.own.TotalJ()
	return t
}

// Entries returns the battery view rows: one per app, plus the Screen
// pseudo-entry (when its bucket is non-empty) and the System entry,
// sorted by descending energy then ascending UID for determinism.
func (a *Accountant) Entries() []Entry {
	out := make([]Entry, 0, a.own.Len()+2)
	a.own.Each(func(uid app.UID, row *hw.UsageRow) {
		out = append(out, Entry{UID: uid, TotalJ: row.Total()})
	})
	if a.screenJ > 0 {
		out = append(out, Entry{UID: app.UIDScreen, TotalJ: a.screenJ})
	}
	if a.systemJ > 0 {
		out = append(out, Entry{UID: app.UIDSystem, TotalJ: a.systemJ})
	}
	slices.SortFunc(out, func(x, y Entry) int {
		return cmp.Or(cmp.Compare(y.TotalJ, x.TotalJ), cmp.Compare(x.UID, y.UID))
	})
	return out
}

// Share reports uid's fraction of total attributed energy in [0, 1].
func (a *Accountant) Share(uid app.UID) float64 {
	total := a.TotalJ()
	if total == 0 {
		return 0
	}
	switch uid {
	case app.UIDScreen:
		return a.screenJ / total
	case app.UIDSystem:
		return a.systemJ / total
	}
	return a.AppJ(uid) / total
}
