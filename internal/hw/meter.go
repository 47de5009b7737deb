package hw

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Sink consumes integrated intervals. The meter calls sinks in
// registration order with the same Interval value, whose per-app table
// is borrowed meter-owned storage: sinks must consume it before
// returning, or Clone() it to retain it (see Interval's borrow
// contract). Sinks must not mutate the rows.
type Sink interface {
	Accrue(Interval)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Interval)

// Accrue implements Sink.
func (f SinkFunc) Accrue(iv Interval) { f(iv) }

// Meter tracks device hardware state and integrates energy exactly over
// each span of constant power.
//
// All state setters first close the current interval (integrating energy
// at the old power level up to now), then apply the change, so callers
// never need to worry about ordering within a single instant.
//
// Per-UID state lives in dense struct-of-arrays columns mirroring
// internal/app's small-int UID assignment (see uidColumns), with the
// live UID set cached as a sorted slice. The cache replaces the
// per-flush "collect keys + sort.Slice" pass the map representation
// needed: it is invalidated (updated in place) only when CPU
// attribution, holds or tails change, never per interval.
type Meter struct {
	now     func() sim.Time
	profile Profile
	battery *Battery
	sinks   []Sink

	lastT sim.Time

	suspended  bool
	screenOn   bool
	screenDim  bool
	brightness int

	// cols is the dense per-UID state table in columnar form.
	cols uidColumns
	// liveUIDs is the sorted cache of UIDs with any live state.
	liveUIDs []app.UID
	// periphMW caches per-component full power (index Component-1), so
	// the accrual loop reads a table instead of switching on the
	// profile per hold.
	periphMW [numComponents]float64
	// cpuMW caches cpuMarginalMW between CPU-attribution changes: the
	// DVFS operating point depends only on the cpuUtil column, so the
	// instantaneous-power sampler (called per app per tick) reuses the
	// exact float the last evaluation produced instead of re-sorting.
	cpuMW      float64
	cpuMWValid bool
	// holderCount[c-1] counts distinct UIDs holding component c; it is
	// the denominator of the per-holder energy share and makes "is c
	// held at all" O(1).
	holderCount [numComponents]int
	// tailCount counts live WiFi tails, so tail-free accrual (the common
	// case) skips the expiry scan entirely.
	tailCount int
	// accrues counts entries to accrue; see ChangeToken.
	accrues uint64

	// iv is the reusable interval buffer handed to sinks; its per-app
	// table is reset, not reallocated, on every flush. See Interval's
	// borrow contract.
	iv Interval

	// utilScratch is totalCPUUtil's reusable sort buffer.
	utilScratch []float64
	// uidScratch is a reusable buffer for deferred live-set removals.
	uidScratch []app.UID

	// tel receives power-state changes, battery updates and per-component
	// power distributions; nil (the default) costs one branch per change.
	tel *telemetry.Recorder
	// mw holds tel's power distributions by component index
	// (Component-1), the system draw last. Each is resolved on its first
	// positive observation, so the recorder lists only sources that drew.
	mw [numComponents + 1]*telemetry.Histogram
}

// NewMeter builds a meter over the given clock, profile and battery.
// Sinks may be added later with AddSink.
func NewMeter(now func() sim.Time, profile Profile, battery *Battery) (*Meter, error) {
	if now == nil {
		return nil, fmt.Errorf("hw: nil clock")
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if battery == nil {
		return nil, fmt.Errorf("hw: nil battery")
	}
	m := &Meter{
		now:        now,
		profile:    profile,
		battery:    battery,
		lastT:      now(),
		brightness: 102, // Android's default ~40% brightness
		iv:         NewInterval(0, 0),
	}
	// Pre-size the columns for a typical app census so the first
	// installs never grow the table (see uidColumns).
	m.cols.init(app.FirstAppUID, 16)
	m.periphMW[Camera-1] = profile.CameraOn
	m.periphMW[GPS-1] = profile.GPSOn
	m.periphMW[WiFi-1] = profile.WiFiHigh
	m.periphMW[Audio-1] = profile.AudioOn
	return m, nil
}

// AddSink registers a consumer of integrated intervals.
func (m *Meter) AddSink(s Sink) { m.sinks = append(m.sinks, s) }

// SetTelemetry wires a telemetry recorder (nil detaches it).
func (m *Meter) SetTelemetry(rec *telemetry.Recorder) {
	m.tel = rec
	m.mw = [len(m.mw)]*telemetry.Histogram{}
}

func b01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// Profile returns the active power profile.
func (m *Meter) Profile() Profile { return m.profile }

// Battery returns the battery being drained.
func (m *Meter) Battery() *Battery { return m.battery }

// ScreenOn reports whether the display is lit.
func (m *Meter) ScreenOn() bool { return m.screenOn }

// Brightness reports the current brightness level (0-255).
func (m *Meter) Brightness() int { return m.brightness }

// Suspended reports whether the platform is in deep sleep.
func (m *Meter) Suspended() bool { return m.suspended }

// stateIdx returns uid's live column slot, or -1.
func (m *Meter) stateIdx(uid app.UID) int {
	i := m.cols.index(uid)
	if i < 0 || !m.cols.live[i] {
		return -1
	}
	return i
}

// stateSlot returns uid's column slot, creating (and activating) it as
// needed and inserting uid into the sorted live cache on first touch.
func (m *Meter) stateSlot(uid app.UID) int {
	i := m.cols.ensure(uid)
	if !m.cols.live[i] {
		m.cols.live[i] = true
		m.insertLive(uid)
	}
	return i
}

func (m *Meter) insertLive(uid app.UID) {
	n := len(m.liveUIDs)
	if n == 0 || uid > m.liveUIDs[n-1] {
		m.liveUIDs = append(m.liveUIDs, uid)
		return
	}
	j := sort.Search(n, func(k int) bool { return m.liveUIDs[k] >= uid })
	m.liveUIDs = append(m.liveUIDs, 0)
	copy(m.liveUIDs[j+1:], m.liveUIDs[j:])
	m.liveUIDs[j] = uid
}

// releaseState drops uid from the live cache when its slot is empty.
func (m *Meter) releaseState(uid app.UID, i int) {
	if !m.cols.emptyAt(i) {
		return
	}
	m.cols.live[i] = false
	for j, u := range m.liveUIDs {
		if u == uid {
			m.liveUIDs = append(m.liveUIDs[:j], m.liveUIDs[j+1:]...)
			return
		}
	}
}

// CPUUtil reports the utilization currently attributed to uid.
func (m *Meter) CPUUtil(uid app.UID) float64 {
	if i := m.stateIdx(uid); i >= 0 {
		return m.cols.cpuUtil[i]
	}
	return 0
}

// Flush integrates energy up to the current instant without changing any
// state. Call before reading accounting results.
func (m *Meter) Flush() { m.accrue() }

// SetSuspended moves the platform in or out of deep sleep. While
// suspended, app CPU work and peripherals draw nothing (processes are
// halted), matching Android's suspend semantics. Suspending also kills
// any lingering radio tails.
func (m *Meter) SetSuspended(v bool) {
	if m.suspended == v {
		return
	}
	m.accrue()
	m.tel.RecordPowerState(m.now(), app.UIDNone, "suspend", b01(m.suspended), b01(v))
	m.suspended = v
	if v && m.tailCount > 0 {
		m.dropTails(0)
	}
}

// dropTails zeroes every tail that has expired by cutoff (cutoff 0 kills
// all of them) and releases emptied slots.
func (m *Meter) dropTails(cutoff sim.Time) {
	m.uidScratch = m.uidScratch[:0]
	for _, uid := range m.liveUIDs {
		i := int(uid - m.cols.base)
		if exp := m.cols.tailExp[i]; exp != 0 && (cutoff == 0 || exp <= cutoff) {
			m.cols.tailExp[i] = 0
			m.tailCount--
			if m.cols.emptyAt(i) {
				m.uidScratch = append(m.uidScratch, uid)
			}
		}
	}
	for _, uid := range m.uidScratch {
		m.releaseState(uid, int(uid-m.cols.base))
	}
}

// SetScreen switches the display on or off.
func (m *Meter) SetScreen(on bool) {
	if m.screenOn == on {
		return
	}
	m.accrue()
	m.tel.RecordPowerState(m.now(), app.UIDNone, "screen", b01(m.screenOn), b01(on))
	m.screenOn = on
	if !on {
		m.screenDim = false
	}
}

// SetScreenDim dims or undims the lit display (the SCREEN_DIM_WAKE_LOCK
// state: visible but at a fraction of the set brightness).
func (m *Meter) SetScreenDim(dim bool) {
	if m.screenDim == dim {
		return
	}
	m.accrue()
	m.tel.RecordPowerState(m.now(), app.UIDNone, "screen_dim", b01(m.screenDim), b01(dim))
	m.screenDim = dim
}

// ScreenDimmed reports whether the display is in the dim state.
func (m *Meter) ScreenDimmed() bool { return m.screenDim }

// SetBrightness sets the display brightness level, clamped to [0, 255].
func (m *Meter) SetBrightness(level int) {
	if level < 0 {
		level = 0
	}
	if level > MaxBrightness {
		level = MaxBrightness
	}
	if m.brightness == level {
		return
	}
	m.accrue()
	m.tel.RecordPowerState(m.now(), app.UIDNone, "brightness", float64(m.brightness), float64(level))
	m.brightness = level
}

// SetCPUUtil sets the total CPU utilization attributed to uid, clamped to
// [0, 1].
func (m *Meter) SetCPUUtil(uid app.UID, util float64) {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	if m.CPUUtil(uid) == util {
		return
	}
	m.accrue()
	i := m.stateSlot(uid)
	m.tel.RecordPowerState(m.now(), uid, "cpu", m.cols.cpuUtil[i], util)
	m.cols.cpuUtil[i] = util
	// The only mutation the DVFS operating point depends on.
	m.cpuMWValid = false
	m.releaseState(uid, i)
}

// Hold records that uid powered component c (camera, GPS, WiFi, audio).
// Holds nest: each Hold needs a matching Release. Re-holding the WiFi
// radio cancels any pending tail for the holder.
func (m *Meter) Hold(c Component, uid app.UID) error {
	if !peripheral(c) {
		return fmt.Errorf("hw: cannot hold %v", c)
	}
	m.accrue()
	i := m.stateSlot(uid)
	ci := int(c - 1)
	if m.cols.holds[ci][i] == 0 {
		m.holderCount[ci]++
		m.cols.holdMask[i] |= 1 << uint(ci)
	}
	m.cols.holds[ci][i]++
	n := m.cols.holds[ci][i]
	m.tel.RecordPowerState(m.now(), uid, c.String(), float64(n-1), float64(n))
	if c == WiFi && m.cols.tailExp[i] != 0 {
		m.cols.tailExp[i] = 0
		m.tailCount--
	}
	return nil
}

// Release drops one hold of component c by uid. Dropping the last WiFi
// hold moves the radio into its low-power tail state for the holder,
// billed until Profile.WiFiTail elapses.
func (m *Meter) Release(c Component, uid app.UID) error {
	if !peripheral(c) {
		return fmt.Errorf("hw: cannot release %v", c)
	}
	i := m.stateIdx(uid)
	ci := int(c - 1)
	if i < 0 || m.cols.holds[ci][i] <= 0 {
		return fmt.Errorf("hw: release of %v by uid %d without hold", c, uid)
	}
	m.accrue()
	m.cols.holds[ci][i]--
	n := m.cols.holds[ci][i]
	m.tel.RecordPowerState(m.now(), uid, c.String(), float64(n+1), float64(n))
	if n == 0 {
		m.holderCount[ci]--
		m.cols.holdMask[i] &^= 1 << uint(ci)
		if c == WiFi && m.profile.WiFiTail > 0 && m.profile.WiFiLow > 0 {
			m.cols.tailExp[i] = m.now().Add(m.profile.WiFiTail)
			m.tailCount++
		}
		m.releaseState(uid, i)
	}
	return nil
}

// InWiFiTail reports whether uid's radio is in its ramp-down state.
func (m *Meter) InWiFiTail(uid app.UID) bool {
	i := m.stateIdx(uid)
	return i >= 0 && m.cols.tailExp[i] != 0 && m.cols.tailExp[i].After(m.now())
}

// Holding reports whether uid currently powers component c.
func (m *Meter) Holding(c Component, uid app.UID) bool {
	if !peripheral(c) {
		return false
	}
	i := m.stateIdx(uid)
	return i >= 0 && m.cols.holds[c-1][i] > 0
}

func peripheral(c Component) bool {
	switch c {
	case Camera, GPS, WiFi, Audio:
		return true
	}
	return false
}

// peripheralPower reads the per-component full-power table built at
// construction (zero for CPU/Screen, which cannot be held).
func (m *Meter) peripheralPower(c Component) float64 {
	return m.periphMW[c-1]
}

// accrue closes the span [lastT, now) and feeds it to every sink and the
// battery. The span is split at WiFi tail expiries so tail energy
// integrates exactly.
func (m *Meter) accrue() {
	m.accrues++
	t := m.now()
	if t < m.lastT {
		panic(fmt.Sprintf("hw: clock went backwards: %v < %v", t, m.lastT))
	}
	for m.lastT < t {
		segEnd := t
		if m.tailCount > 0 {
			for _, uid := range m.liveUIDs {
				if exp := m.cols.tailExp[uid-m.cols.base]; exp > m.lastT && exp < segEnd {
					segEnd = exp
				}
			}
		}
		m.accrueSegment(segEnd)
		if m.tailCount > 0 {
			m.dropTails(m.lastT)
		}
	}
}

// accrueSegment integrates [lastT, t) at constant power into the meter's
// reusable interval buffer and hands it to the sinks (borrowed: the next
// segment overwrites it).
func (m *Meter) accrueSegment(t sim.Time) {
	if t == m.lastT {
		return
	}
	secs := t.Sub(m.lastT).Seconds()

	iv := &m.iv
	iv.From, iv.To = m.lastT, t
	iv.ScreenJ, iv.SystemJ = 0, 0
	iv.apps.Reset()

	// Platform base draw.
	base := m.profile.CPUIdleAwake
	if m.suspended {
		base = m.profile.CPUSuspend
	}
	iv.SystemJ = mWtoJ(base, secs)

	if !m.suspended {
		// One pass over the sorted live-UID cache replaces the map walks
		// and the per-flush key sort: rows are created under exactly the
		// old conditions (attributed CPU, any held peripheral, a live
		// tail), so the charged-UID set is unchanged, and ascending-UID
		// iteration keeps the table's active set sorted for free.
		cpuMW := m.cpuMarginalMW()
		for _, uid := range m.liveUIDs {
			i := int(uid - m.cols.base)
			var row *UsageRow
			if u := m.cols.cpuUtil[i]; u != 0 {
				// Per-app CPU, at the current DVFS operating point
				// (linear when the profile has no frequency ladder).
				row = iv.apps.Row(uid)
				row.Add(CPU, mWtoJ(u*cpuMW, secs))
			}
			// Peripherals: full component power charged to each holder
			// (if two apps hold the camera, hardware draws once but both
			// keep it on; charge the holder set equally). The hold mask
			// walks only the set components, in ascending component
			// order like the struct loop it replaces.
			for mask := m.cols.holdMask[i]; mask != 0; mask &= mask - 1 {
				ci := bits.TrailingZeros8(mask)
				c := Component(ci + 1)
				share := mWtoJ(m.periphMW[ci], secs) / float64(m.holderCount[ci])
				if row == nil {
					row = iv.apps.Row(uid)
				}
				row.Add(c, share)
			}
			// Radio tails: apps whose WiFi hold ended recently keep
			// drawing the low-power state until their tail expires.
			if m.cols.tailExp[i] > m.lastT {
				if row == nil {
					row = iv.apps.Row(uid)
				}
				row.Add(WiFi, mWtoJ(m.profile.WiFiLow, secs))
			}
		}
		// Screen.
		if m.screenOn {
			iv.ScreenJ = mWtoJ(m.screenPowerNow(), secs)
		}
	}

	m.lastT = t

	total := iv.AppsTotalJ()
	total += iv.ScreenJ + iv.SystemJ
	if err := m.battery.Drain(total); err != nil {
		panic(err) // unreachable: total is a sum of non-negative terms
	}

	if m.tel != nil {
		m.observeSegment(iv, secs, total)
	}

	for _, s := range m.sinks {
		s.Accrue(*iv)
	}
}

// observeSegment feeds telemetry for one accrued segment: the battery
// update event and the per-component mean-power distributions. One walk
// over the rows sums every component, each in the table's sorted UID
// order, so every float result is order-stable and metric snapshots
// stay byte-identical across runs.
func (m *Meter) observeSegment(iv *Interval, secs, totalJ float64) {
	m.tel.RecordBattery(iv.To, totalJ, m.battery.Percent())
	var sums UsageRow
	t := iv.apps
	for _, uid := range t.uids {
		sums.AddRow(&t.rows[uid-t.base])
	}
	sums[Screen-1] += iv.ScreenJ
	for i, j := range sums {
		if j > 0 {
			m.observeMW(i, j/secs*1000)
		}
	}
	if iv.SystemJ > 0 {
		m.observeMW(numComponents, iv.SystemJ/secs*1000)
	}
}

// observeMW feeds mw into power distribution i of m.mw.
func (m *Meter) observeMW(i int, mw float64) {
	h := m.mw[i]
	if h == nil {
		source := "system"
		if i < numComponents {
			source = Component(i + 1).String()
		}
		h = m.tel.PowerHistogram(source)
		m.mw[i] = h
	}
	h.Observe(mw)
}

// InstantPowerMW reports current total platform draw in milliwatts.
// No simulation path reads it (depletion sweeps step the engine and
// read the battery); tests use it to check the meter's power state.
func (m *Meter) InstantPowerMW() float64 {
	base := m.profile.CPUIdleAwake
	if m.suspended {
		base = m.profile.CPUSuspend
	}
	p := base
	if !m.suspended {
		cpuMW := m.cpuMarginalMW()
		now := m.now()
		for _, uid := range m.liveUIDs {
			i := int(uid - m.cols.base)
			p += m.cols.cpuUtil[i] * cpuMW
			if exp := m.cols.tailExp[i]; exp != 0 && exp.After(now) {
				p += m.profile.WiFiLow
			}
		}
		for ci := range m.holderCount {
			if m.holderCount[ci] > 0 {
				p += m.peripheralPower(Component(ci + 1))
			}
		}
		if m.screenOn {
			p += m.screenPowerNow()
		}
	}
	return p
}

// screenPowerNow folds the dim state into the screen power model.
func (m *Meter) screenPowerNow() float64 {
	p := m.profile.ScreenPower(m.brightness)
	if m.screenDim {
		p = m.profile.ScreenPower(0) + (p-m.profile.ScreenPower(0))*dimFactor
	}
	return p
}

// dimFactor is the fraction of above-base brightness draw kept while the
// display is dimmed.
const dimFactor = 0.3

// InstantScreenPowerMW reports the display's current draw in mW.
func (m *Meter) InstantScreenPowerMW() float64 {
	if m.suspended || !m.screenOn {
		return 0
	}
	return m.screenPowerNow()
}

// InstantSystemPowerMW reports the platform base draw in mW.
func (m *Meter) InstantSystemPowerMW() float64 {
	if m.suspended {
		return m.profile.CPUSuspend
	}
	return m.profile.CPUIdleAwake
}

// InstantAppPowerMW reports the power currently drawn by uid's own
// components (CPU plus peripheral holds, excluding screen), in mW. This
// is the per-app trace a power-signature detector samples; the dense
// state table makes the common case — an app with no live meter state —
// a constant-time zero instead of a walk over every hold map.
func (m *Meter) InstantAppPowerMW(uid app.UID) float64 {
	if m.suspended {
		return 0
	}
	i := m.stateIdx(uid)
	if i < 0 {
		return 0
	}
	return m.appMW(i, m.cpuMarginalMW(), m.now())
}

// appMW is the own-power draw of the app in state slot i, in mW: its
// CPU share at cpuMW per full core, plus each held peripheral split
// among its holders, plus a WiFi tail still live at now, added in that
// order.
func (m *Meter) appMW(i int, cpuMW float64, now sim.Time) float64 {
	var p float64
	if u := m.cols.cpuUtil[i]; u != 0 {
		p = u * cpuMW
	}
	for mask := m.cols.holdMask[i]; mask != 0; mask &= mask - 1 {
		ci := bits.TrailingZeros8(mask)
		p += m.periphMW[ci] / float64(m.holderCount[ci])
	}
	if exp := m.cols.tailExp[i]; exp != 0 && exp.After(now) {
		p += m.profile.WiFiLow
	}
	return p
}

// ChangeToken tells a caller whether any app's instantaneous power (as
// InstantAppPowerMW and AppPowersInto report it) may have changed since
// an earlier call: if that call returned the same token and this one
// returns steady, none can have. Every state setter enters accrue
// before it mutates, and each entry advances the token, so an unchanged
// token means no setter ran, not even one at the same instant. With no
// tail live, per-app power is a function of the setters' state alone.
// A live WiFi tail makes steady false: it expires with time, with no
// setter to advance the token.
func (m *Meter) ChangeToken() (token uint64, steady bool) {
	return m.accrues, m.tailCount == 0
}

// AppPowersInto fills dst[j] with the instantaneous own-power draw (in
// mW, as InstantAppPowerMW) of the app occupying slots[j], where slots
// are ascending app slots (see app.Slot). One merge over the sorted
// live-UID cache replaces a per-app query: power-signature samplers
// call this once per tick for the whole census, so apps with no live
// meter state cost one zero store instead of a lookup each.
func (m *Meter) AppPowersInto(slots []int32, dst []float64) {
	for j := range dst {
		dst[j] = 0
	}
	if m.suspended {
		return
	}
	cpuMW := m.cpuMarginalMW()
	now := m.now()
	j := 0
	for _, uid := range m.liveUIDs {
		s := int32(app.Slot(uid))
		for j < len(slots) && slots[j] < s {
			j++
		}
		if j >= len(slots) {
			break
		}
		if slots[j] != s {
			continue
		}
		dst[j] = m.appMW(int(uid-m.cols.base), cpuMW, now)
	}
}

// UIDs returns the set of uids with CPU attribution or live holds,
// sorted; useful for diagnostics. (Tail-only uids are excluded, matching
// the historical definition.)
func (m *Meter) UIDs() []app.UID {
	out := make([]app.UID, 0, len(m.liveUIDs))
	for _, uid := range m.liveUIDs {
		i := int(uid - m.cols.base)
		if m.cols.cpuUtil[i] != 0 || m.cols.holdMask[i] != 0 {
			out = append(out, uid)
		}
	}
	return out
}

func mWtoJ(mw, secs float64) float64 { return mw / 1000 * secs }
