package obsv

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/app"
	"repro/internal/device"
	"repro/internal/hw"
)

// FlameCollector folds the meter's attribution stream into an energy
// flame graph: every accrued interval's per-component joules are split
// across the framework entities (activities, services, ...) that
// demanded that component, producing collapsed stacks of the form
//
//	component;app;entity
//
// weighted by joules. The split uses the aggregator's live demand
// entries at flush time — exact for steady state, approximate across a
// transition boundary (the energy totals stay exact; only the entity
// attribution of the single interval straddling a demand change is
// heuristic). Screen energy folds under "screen;Screen;(display)" and
// the CPU idle baseline under "cpu;System;(idle)", mirroring the
// battery interface's pseudo-UIDs.
//
// Everything is deterministic: aggregator entries iterate in insertion
// order, interval rows in ascending UID order, and the fold sorts stack
// lines, so two identical simulations produce byte-identical output for
// any fleet worker count. A FlameCollector is single-goroutine, like
// the meter that feeds it.
type FlameCollector struct {
	agg *hw.Aggregator
	pm  *app.PackageManager

	// Buckets are dense: keys[b] names bucket b and sums[b] accumulates
	// it. index maps a key to its bucket and is consulted only when a
	// split plan is built; Fold renders each key's collapsed string form
	// once at the end.
	keys    []stackKey
	sums    []float64
	index   map[stackKey]int32
	screenJ float64
	systemJ float64
	frames  map[any]string     // per-entity frame cache
	labels  map[app.UID]string // per-UID frame cache

	// ents snapshots the aggregator's entries, with their frames, as of
	// aggregator generation gen, and plans holds the split plans built
	// from it: one per UID an interval charged since, in ascending UID
	// order, each component's built on its first non-zero energy.
	// shares is the plans' flat backing store. The demand set changes
	// at lifecycle rate, while the meter flushes at least once per
	// watchdog window, so intervals reuse the plans; all three slices
	// are reused across generations. A new collector's zero gen matches
	// an aggregator that was never changed, whose snapshot is empty.
	ents   []entityRef
	plans  []uidPlan
	shares []share
	gen    uint64
}

// stackKey identifies one accumulation bucket without building its
// collapsed string on the hot path.
type stackKey struct {
	comp  hw.Component
	uid   app.UID
	frame string
}

type entityRef struct {
	uid    app.UID
	frame  string
	demand hw.Demand
}

// uidPlan is how one UID's energy splits across its entities, per
// component (index Component-1).
type uidPlan struct {
	uid  app.UID
	comp [len(hw.UsageRow{})]compPlan
}

// compPlan gives a component's joules j to shares[lo:hi], each share
// adding j*w/total to its bucket: the weight total and the shares are
// those of the entities demanding the component, in entry order.
// Energy no entity demands goes to one "(self)" share of weight 1 over
// a total of 1, which adds j itself, since both operations are exact.
// A plan is built on its component's first non-zero energy, which
// every share then receives, so a bucket exists exactly when it holds
// an addition. A built plan lists a share (hi > lo); only a NaN total
// lists none, and its energy adds nowhere however often it is rebuilt.
type compPlan struct {
	total  float64
	lo, hi int32
}

// share is one entity's weight in a split and its bucket.
type share struct {
	w float64
	b int32
}

var _ hw.Sink = (*FlameCollector)(nil)

// AttachFlame builds a collector over dev's aggregator and package
// manager and registers it as a meter sink. Call before running the
// scenario; read the result with Fold after.
func AttachFlame(dev *device.Device) *FlameCollector {
	c := NewFlameCollector(dev.Aggregator, dev.Packages)
	dev.Meter.AddSink(c)
	return c
}

// NewFlameCollector builds an unattached collector; the caller wires it
// with meter.AddSink.
func NewFlameCollector(agg *hw.Aggregator, pm *app.PackageManager) *FlameCollector {
	return &FlameCollector{
		agg:    agg,
		pm:     pm,
		index:  make(map[stackKey]int32),
		frames: make(map[any]string),
		labels: make(map[app.UID]string),
	}
}

// Accrue implements hw.Sink. Each app row's component energy is split
// across the live demand entries of its UID: CPU joules proportionally
// to each entity's CPU utilization, peripheral joules equally across
// the entities holding that peripheral. Energy with no matching entity
// (e.g. background residue after the last component died) keeps the
// "(self)" leaf. Rows and plans are both in ascending UID order, so one
// merge walk finds each row's plan.
func (c *FlameCollector) Accrue(iv hw.Interval) {
	if gen := c.agg.Generation(); gen != c.gen {
		c.ents = c.ents[:0]
		c.agg.EachEntry(func(key any, uid app.UID, d hw.Demand) {
			c.ents = append(c.ents, entityRef{uid: uid, frame: c.frameFor(key), demand: d})
		})
		c.plans, c.shares = c.plans[:0], c.shares[:0]
		c.gen = gen
	}
	k := 0
	for _, uid := range iv.UIDs() {
		for k < len(c.plans) && c.plans[k].uid < uid {
			k++
		}
		if k == len(c.plans) || c.plans[k].uid != uid {
			c.plans = slices.Insert(c.plans, k, uidPlan{uid: uid})
		}
		p := &c.plans[k]
		for ci, j := range iv.App(uid) {
			if j == 0 {
				continue
			}
			cp := &p.comp[ci]
			if cp.hi == cp.lo {
				c.build(cp, uid, hw.Component(ci+1))
			}
			for _, sh := range c.shares[cp.lo:cp.hi] {
				c.sums[sh.b] += j * sh.w / cp.total
			}
		}
	}
	c.screenJ += iv.ScreenJ
	c.systemJ += iv.SystemJ
}

// build lists uid's shares of component comp, summing the weight total
// in entry order.
func (c *FlameCollector) build(cp *compPlan, uid app.UID, comp hw.Component) {
	var total float64
	for _, e := range c.ents {
		if e.uid == uid {
			total += entityWeight(comp, e.demand)
		}
	}
	lo := len(c.shares)
	if total <= 0 {
		c.shares = append(c.shares, share{w: 1, b: c.bucket(stackKey{comp, uid, "(self)"})})
		total = 1
	} else {
		for _, e := range c.ents {
			if e.uid != uid {
				continue
			}
			if w := entityWeight(comp, e.demand); w > 0 {
				c.shares = append(c.shares, share{w: w, b: c.bucket(stackKey{comp, uid, e.frame})})
			}
		}
	}
	*cp = compPlan{total: total, lo: int32(lo), hi: int32(len(c.shares))}
}

// entityWeight is the share weight one demand entry contributes for a
// component: utilization for CPU, a 0/1 hold flag for peripherals.
func entityWeight(comp hw.Component, d hw.Demand) float64 {
	switch comp {
	case hw.CPU:
		return d.CPUUtil
	case hw.Camera:
		if d.Camera {
			return 1
		}
	case hw.GPS:
		if d.GPS {
			return 1
		}
	case hw.WiFi:
		if d.WiFi {
			return 1
		}
	case hw.Audio:
		if d.Audio {
			return 1
		}
	}
	return 0
}

// bucket returns k's bucket, creating it on first use.
func (c *FlameCollector) bucket(k stackKey) int32 {
	if b, ok := c.index[k]; ok {
		return b
	}
	b := int32(len(c.keys))
	c.keys = append(c.keys, k)
	c.sums = append(c.sums, 0)
	c.index[k] = b
	return b
}

// frameFor renders an aggregator entry key as a stack frame, cached per
// key: entities exposing FullName (activities, services) use it,
// anything else falls back to its type name.
func (c *FlameCollector) frameFor(key any) string {
	if f, ok := c.frames[key]; ok {
		return f
	}
	var f string
	if named, ok := key.(interface{ FullName() string }); ok {
		f = named.FullName()
	} else {
		f = "(" + strings.TrimPrefix(fmt.Sprintf("%T", key), "*") + ")"
	}
	f = sanitizeFrame(f)
	c.frames[key] = f
	return f
}

// labelFor renders a UID's stack frame, cached: the package label plus
// "#uid" so two apps sharing a label never merge.
func (c *FlameCollector) labelFor(uid app.UID) string {
	if l, ok := c.labels[uid]; ok {
		return l
	}
	l := sanitizeFrame(fmt.Sprintf("%s#%d", c.pm.Label(uid), uid))
	c.labels[uid] = l
	return l
}

// sanitizeFrame keeps frames legal for the collapsed-stack grammar:
// semicolons separate frames and spaces separate the weight, so both
// become underscores.
func sanitizeFrame(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ';', ' ', '\t', '\n':
			return '_'
		}
		return r
	}, s)
}

// Fold freezes the collector into a Flame, rendering the collapsed
// string form of each bucket once.
func (c *FlameCollector) Fold() *Flame {
	out := make(map[string]float64, len(c.keys)+2)
	for b, k := range c.keys {
		out[k.comp.String()+";"+c.labelFor(k.uid)+";"+k.frame] += c.sums[b]
	}
	if c.screenJ != 0 {
		out["screen;Screen;(display)"] += c.screenJ
	}
	if c.systemJ != 0 {
		out["cpu;System;(idle)"] += c.systemJ
	}
	return &Flame{Stacks: out}
}

// Flame is a folded energy flame graph: collapsed stacks to joules.
type Flame struct {
	Stacks map[string]float64
}

// MergeFlames sums flames stack-by-stack in argument order, so a fleet
// merge in device-index order is byte-deterministic for any worker
// count. Each stack's sum adds the flames in argument order whatever
// order a flame's stacks are visited in, so the visit needs no sort.
// Nil flames are skipped.
func MergeFlames(flames ...*Flame) *Flame {
	out := &Flame{Stacks: make(map[string]float64)}
	for _, f := range flames {
		if f == nil {
			continue
		}
		for k, j := range f.Stacks {
			out.Stacks[k] += j
		}
	}
	return out
}

// TotalJ sums the flame's energy.
func (f *Flame) TotalJ() float64 {
	keys := make([]string, 0, len(f.Stacks))
	for k := range f.Stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t float64
	for _, k := range keys {
		t += f.Stacks[k]
	}
	return t
}

// WriteCollapsed renders the flame in Brendan Gregg's collapsed-stack
// format — "frame;frame;frame weight" — weighted in integer
// microjoules, one line per stack, sorted. The output feeds standard
// flamegraph tooling (flamegraph.pl, speedscope, inferno) unchanged.
func (f *Flame) WriteCollapsed(w io.Writer) error {
	keys := make([]string, 0, len(f.Stacks))
	for k := range f.Stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		uj := int64(math.Round(f.Stacks[k] * 1e6))
		if uj <= 0 {
			continue
		}
		fmt.Fprintf(&b, "%s %d\n", k, uj)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// flameNode is one frame of the HTML report's icicle tree.
type flameNode struct {
	name     string
	totalJ   float64
	children map[string]*flameNode
	order    []string
}

func (n *flameNode) child(name string) *flameNode {
	if c, ok := n.children[name]; ok {
		return c
	}
	c := &flameNode{name: name, children: make(map[string]*flameNode)}
	n.children[name] = c
	n.order = append(n.order, name)
	return c
}

// WriteHTML renders a self-contained static HTML icicle report of the
// flame — no external assets, deterministic bytes. title heads the
// page.
func (f *Flame) WriteHTML(w io.Writer, title string) error {
	root := &flameNode{name: "all", children: make(map[string]*flameNode)}
	keys := make([]string, 0, len(f.Stacks))
	for k := range f.Stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		j := f.Stacks[k]
		root.totalJ += j
		n := root
		for _, frame := range strings.Split(k, ";") {
			n = n.child(frame)
			n.totalJ += j
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>%s</title><style>
body{font:13px/1.4 monospace;margin:16px;background:#fff;color:#222}
.frame{box-sizing:border-box;overflow:hidden;white-space:nowrap;
border:1px solid #fff;border-radius:2px;padding:1px 3px;background:#e66}
.l1{background:#f5a35c}.l2{background:#f6c85f}.l3{background:#9dd866}
.pad{box-sizing:border-box}
.row{display:flex;width:100%%}
</style></head><body>
<h1>%s</h1>
<p>total %.3f J · %d stacks · energy flame graph (width &prop; joules)</p>
`, htmlEscape(title), htmlEscape(title), root.totalJ, len(keys))
	if root.totalJ > 0 {
		writeFlameRows(&b, []*flameNode{root}, root.totalJ, 0)
	}
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeFlameRows emits one flex row per depth, recursing breadth-first.
// Self energy (including whole leaf frames) turns into invisible pad
// nodes in the next row, so every frame stays horizontally aligned
// under its parent. The depth cap bounds the pad recursion; real stacks
// are three frames deep.
func writeFlameRows(b *strings.Builder, level []*flameNode, totalJ float64, depth int) {
	if depth > 6 {
		return
	}
	var next []*flameNode
	anyFrame := false
	b.WriteString(`<div class="row">`)
	for _, n := range level {
		pct := n.totalJ / totalJ * 100
		if n.name == "" {
			fmt.Fprintf(b, `<div class="pad" style="width:%.4f%%"></div>`, pct)
		} else {
			anyFrame = true
			fmt.Fprintf(b, `<div class="frame l%d" style="width:%.4f%%" title="%s: %.4f J">%s</div>`,
				depth%4, pct, htmlEscape(n.name), n.totalJ, htmlEscape(n.name))
		}
		for _, name := range n.order {
			next = append(next, n.children[name])
		}
		if pad := n.totalJ - childrenJ(n); pad > 1e-12 {
			next = append(next, &flameNode{name: "", totalJ: pad})
		}
	}
	b.WriteString("</div>\n")
	if anyFrame {
		writeFlameRows(b, next, totalJ, depth+1)
	}
}

func childrenJ(n *flameNode) float64 {
	var t float64
	for _, name := range n.order {
		t += n.children[name].totalJ
	}
	return t
}

// htmlEscaper is built once: a Replacer is safe for concurrent use, and
// building one per frame was a visible share of a job's allocations.
var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func htmlEscape(s string) string { return htmlEscaper.Replace(s) }
