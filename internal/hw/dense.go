package hw

import (
	"sort"

	"repro/internal/app"
	"repro/internal/sim"
)

// UsageRow is per-component energy in joules attributed to one app,
// stored densely (index Component-1): a row is a fixed-size value, so
// accruing into one allocates nothing.
type UsageRow [numComponents]float64

// J reports the energy recorded for component c.
func (r *UsageRow) J(c Component) float64 {
	if c < CPU || c > Audio {
		return 0
	}
	return r[c-1]
}

// Add accumulates j joules for component c. Components outside the
// known range are dropped.
func (r *UsageRow) Add(c Component, j float64) {
	if c < CPU || c > Audio {
		return
	}
	r[c-1] += j
}

// AddRow accumulates other into r in fixed component order.
func (r *UsageRow) AddRow(other *UsageRow) {
	for i := range other {
		r[i] += other[i]
	}
}

// Total sums the row across components in fixed component order, so
// results are bit-deterministic.
func (r *UsageRow) Total() float64 {
	var t float64
	for i := range r {
		t += r[i]
	}
	return t
}

// UsageTable is a dense UID-indexed table of usage rows. Rows live in
// one contiguous slice indexed by uid-base (the small-int slot registry
// of internal/app maps installed apps onto exactly this kind of dense
// range), and the active UID set is maintained as a sorted slice, so
// per-interval consumers get sorted deterministic iteration without
// re-collecting and re-sorting keys. Reset keeps the backing storage,
// so a reused table allocates nothing in steady state.
type UsageTable struct {
	base app.UID
	rows []UsageRow
	live []bool
	uids []app.UID // sorted active UIDs
}

// NewUsageTable returns an empty table. The slot range starts at
// app.FirstAppUID (the common case); rows for smaller UIDs shift the
// base down on first touch.
func NewUsageTable() *UsageTable {
	return &UsageTable{base: app.FirstAppUID}
}

// Reset deactivates every row, keeping capacity for reuse.
func (t *UsageTable) Reset() {
	for _, uid := range t.uids {
		i := int(uid - t.base)
		t.rows[i] = UsageRow{}
		t.live[i] = false
	}
	t.uids = t.uids[:0]
}

// slot grows the dense range to cover uid and returns its index.
func (t *UsageTable) slot(uid app.UID) int {
	if uid < t.base {
		shift := int(t.base - uid)
		rows := make([]UsageRow, shift+len(t.rows))
		copy(rows[shift:], t.rows)
		live := make([]bool, shift+len(t.live))
		copy(live[shift:], t.live)
		t.rows, t.live, t.base = rows, live, uid
	}
	i := int(uid - t.base)
	if i >= len(t.rows) {
		if i >= cap(t.rows) {
			rows := make([]UsageRow, i+1, 2*(i+1))
			copy(rows, t.rows)
			live := make([]bool, i+1, 2*(i+1))
			copy(live, t.live)
			t.rows, t.live = rows, live
		} else {
			t.rows = t.rows[:i+1]
			t.live = t.live[:i+1]
		}
	}
	return i
}

// Row returns uid's row, activating it (and inserting uid into the
// sorted active set) on first touch since the last Reset.
func (t *UsageTable) Row(uid app.UID) *UsageRow {
	i := t.slot(uid)
	if !t.live[i] {
		t.live[i] = true
		t.insert(uid)
	}
	return &t.rows[i]
}

// insert adds uid to the sorted active set. Appends dominate: the meter
// walks its live UIDs in ascending order, so insertion is almost always
// at the tail.
func (t *UsageTable) insert(uid app.UID) {
	n := len(t.uids)
	if n == 0 || uid > t.uids[n-1] {
		t.uids = append(t.uids, uid)
		return
	}
	j := sort.Search(n, func(k int) bool { return t.uids[k] >= uid })
	t.uids = append(t.uids, 0)
	copy(t.uids[j+1:], t.uids[j:])
	t.uids[j] = uid
}

// Get returns uid's row, or nil when uid is not active.
func (t *UsageTable) Get(uid app.UID) *UsageRow {
	if t == nil || uid < t.base {
		return nil
	}
	i := int(uid - t.base)
	if i >= len(t.rows) || !t.live[i] {
		return nil
	}
	return &t.rows[i]
}

// UIDs returns the active UIDs in ascending order. The slice is borrowed:
// valid until the next Row or Reset.
func (t *UsageTable) UIDs() []app.UID {
	if t == nil {
		return nil
	}
	return t.uids
}

// Len reports the number of active rows.
func (t *UsageTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.uids)
}

// Each calls fn for every active row in ascending UID order.
func (t *UsageTable) Each(fn func(uid app.UID, row *UsageRow)) {
	if t == nil {
		return
	}
	for _, uid := range t.uids {
		fn(uid, &t.rows[uid-t.base])
	}
}

// TotalJ sums every active row in ascending UID order (each row in fixed
// component order), matching the historical sorted-UID summation exactly.
func (t *UsageTable) TotalJ() float64 {
	var total float64
	if t == nil {
		return total
	}
	for _, uid := range t.uids {
		total += t.rows[uid-t.base].Total()
	}
	return total
}

// Clone returns an independent deep copy.
func (t *UsageTable) Clone() *UsageTable {
	if t == nil {
		return nil
	}
	c := &UsageTable{
		base: t.base,
		rows: append([]UsageRow(nil), t.rows...),
		live: append([]bool(nil), t.live...),
		uids: append([]app.UID(nil), t.uids...),
	}
	return c
}

// Interval is one integrated span of constant power, delivered to sinks.
//
// Borrow contract: the meter reuses ONE backing table for the interval
// it hands to sinks, so the per-app rows (everything reached through
// Row/App/EachApp/UIDs) are valid only until the sink returns. A sink
// that retains interval data past its Accrue call must Clone() first;
// the next flush overwrites the borrowed storage in place. From, To,
// ScreenJ and SystemJ are plain values and safe to copy freely.
type Interval struct {
	From, To sim.Time
	// ScreenJ is display energy over the interval; its attribution is a
	// policy decision made downstream, so the meter reports it raw.
	ScreenJ float64
	// SystemJ is platform base energy (suspend or idle-awake draw).
	SystemJ float64

	// apps holds each app's own hardware energy over the interval (CPU,
	// camera, GPS, WiFi, audio — everything except the screen).
	apps *UsageTable
}

// NewInterval returns an interval with an empty per-app table; tests and
// replayers build intervals with it and fill rows via Row.
func NewInterval(from, to sim.Time) Interval {
	return Interval{From: from, To: to, apps: NewUsageTable()}
}

// Duration reports the interval length.
func (iv Interval) Duration() sim.Duration { return iv.To.Sub(iv.From) }

// Row returns uid's usage row, creating the backing table and the row as
// needed. Mutating a row on a borrowed interval mutates the shared
// storage (that is what the corrupting-sink tests rely on).
func (iv *Interval) Row(uid app.UID) *UsageRow {
	if iv.apps == nil {
		iv.apps = NewUsageTable()
	}
	return iv.apps.Row(uid)
}

// App returns uid's row, or nil when the interval attributes nothing to
// uid. The row is borrowed (see the type comment).
func (iv Interval) App(uid app.UID) *UsageRow { return iv.apps.Get(uid) }

// AppJ reports the total energy the interval attributes to uid.
func (iv Interval) AppJ(uid app.UID) float64 {
	r := iv.apps.Get(uid)
	if r == nil {
		return 0
	}
	return r.Total()
}

// UIDs returns the charged UIDs in ascending order (borrowed slice).
func (iv Interval) UIDs() []app.UID { return iv.apps.UIDs() }

// EachApp calls fn for every charged app in ascending UID order.
func (iv Interval) EachApp(fn func(uid app.UID, row *UsageRow)) { iv.apps.Each(fn) }

// AppsTotalJ sums all per-app energy in ascending UID order.
func (iv Interval) AppsTotalJ() float64 { return iv.apps.TotalJ() }

// Clone returns an interval with an independent per-app table, safe to
// retain past the sink call that delivered the original.
func (iv Interval) Clone() Interval {
	iv.apps = iv.apps.Clone()
	return iv
}

// uidColumns is the meter's per-UID hot state in struct-of-arrays form:
// one column per field instead of a slice of structs, so the accrual
// loop walks each touched field cache-linearly and the instantaneous-
// power sampler reads only the columns it needs. Slots mirror
// internal/app's sequential UID assignment (index uid-base), exactly
// like UsageTable.
type uidColumns struct {
	base app.UID
	// cpuUtil is the utilization currently attributed to the app
	// (non-zero only while attributed: zero util clears the slot).
	cpuUtil []float64
	// tailExp, when non-zero, is the instant the app's WiFi radio tail
	// expires. An app never holds WiFi and has a tail at once.
	tailExp []sim.Time
	// holds[ci] counts nested peripheral holds of component ci+1;
	// holdMask mirrors it as a per-UID bitset (bit ci set while
	// holds[ci] > 0) so "any hold?" and "which?" are one byte load.
	holds    [numComponents][]int32
	holdMask []uint8
	// live marks slots carrying any state.
	live []bool
}

// init pre-sizes every column for capHint slots above base, so the
// first few apps of a device never grow the table.
func (c *uidColumns) init(base app.UID, capHint int) {
	c.base = base
	c.cpuUtil = make([]float64, 0, capHint)
	c.tailExp = make([]sim.Time, 0, capHint)
	for ci := range c.holds {
		c.holds[ci] = make([]int32, 0, capHint)
	}
	c.holdMask = make([]uint8, 0, capHint)
	c.live = make([]bool, 0, capHint)
}

// index returns uid's slot, or -1 when uid is outside the table.
func (c *uidColumns) index(uid app.UID) int {
	i := int(uid - c.base)
	if uid < c.base || i >= len(c.live) {
		return -1
	}
	return i
}

// ensure returns uid's slot, growing (or re-basing, for sub-base UIDs)
// every column in lockstep as needed.
func (c *uidColumns) ensure(uid app.UID) int {
	if uid < c.base {
		shift := int(c.base - uid)
		c.cpuUtil = prepend(c.cpuUtil, shift)
		c.tailExp = prepend(c.tailExp, shift)
		for ci := range c.holds {
			c.holds[ci] = prepend(c.holds[ci], shift)
		}
		c.holdMask = prepend(c.holdMask, shift)
		c.live = prepend(c.live, shift)
		c.base = uid
	}
	i := int(uid - c.base)
	for i >= len(c.live) {
		c.cpuUtil = append(c.cpuUtil, 0)
		c.tailExp = append(c.tailExp, 0)
		for ci := range c.holds {
			c.holds[ci] = append(c.holds[ci], 0)
		}
		c.holdMask = append(c.holdMask, 0)
		c.live = append(c.live, false)
	}
	return i
}

// emptyAt reports whether slot i carries no state and can be released.
func (c *uidColumns) emptyAt(i int) bool {
	return c.cpuUtil[i] == 0 && c.tailExp[i] == 0 && c.holdMask[i] == 0
}

// prepend shifts a column up by n zero slots (the rare sub-base case).
func prepend[T any](col []T, n int) []T {
	grown := make([]T, n+len(col))
	copy(grown[n:], col)
	return grown
}
