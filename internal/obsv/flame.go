package obsv

import (
	"fmt"
	"io"
	"math"
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

	// stacks accumulates under allocation-free struct keys (the frame
	// string is interned via the caches below, so hashing it allocates
	// nothing); Fold renders the collapsed string form once at the end.
	stacks  map[stackKey]float64
	screenJ float64
	systemJ float64
	frames  map[any]string     // per-entity frame cache
	labels  map[app.UID]string // per-UID frame cache

	// ents snapshots the aggregator's entries, with their frames, as of
	// aggregator generation gen. The demand set changes at lifecycle
	// rate, while the meter flushes at least once per watchdog window,
	// so most intervals reuse the snapshot. A new collector's zero gen
	// matches an aggregator that was never changed, whose snapshot is
	// empty.
	ents []entityRef
	gen  uint64
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
		stacks: make(map[stackKey]float64),
		frames: make(map[any]string),
		labels: make(map[app.UID]string),
	}
}

// Accrue implements hw.Sink.
func (c *FlameCollector) Accrue(iv hw.Interval) {
	if gen := c.agg.Generation(); gen != c.gen {
		c.ents = c.ents[:0]
		c.agg.EachEntry(func(key any, uid app.UID, d hw.Demand) {
			c.ents = append(c.ents, entityRef{uid: uid, frame: c.frameFor(key), demand: d})
		})
		c.gen = gen
	}
	iv.EachApp(func(uid app.UID, u *hw.UsageRow) {
		for _, comp := range hw.Components() {
			if j := u.J(comp); j != 0 {
				c.split(uid, comp, j)
			}
		}
	})
	c.screenJ += iv.ScreenJ
	c.systemJ += iv.SystemJ
}

// split distributes one app's component energy across its live demand
// entries: CPU joules proportionally to each entity's CPU utilization,
// peripheral joules equally across the entities holding that
// peripheral. Energy with no matching entity (e.g. background residue
// after the last component died) keeps the "(self)" leaf.
func (c *FlameCollector) split(uid app.UID, comp hw.Component, j float64) {
	var total float64
	for _, e := range c.ents {
		if e.uid == uid {
			total += entityWeight(comp, e.demand)
		}
	}
	if total <= 0 {
		c.stacks[stackKey{comp, uid, "(self)"}] += j
		return
	}
	for _, e := range c.ents {
		if e.uid != uid {
			continue
		}
		if w := entityWeight(comp, e.demand); w > 0 {
			c.stacks[stackKey{comp, uid, e.frame}] += j * w / total
		}
	}
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
	out := make(map[string]float64, len(c.stacks)+2)
	for k, v := range c.stacks {
		out[k.comp.String()+";"+c.labelFor(k.uid)+";"+k.frame] += v
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
// count. Nil flames are skipped.
func MergeFlames(flames ...*Flame) *Flame {
	out := &Flame{Stacks: make(map[string]float64)}
	for _, f := range flames {
		if f == nil {
			continue
		}
		keys := make([]string, 0, len(f.Stacks))
		for k := range f.Stacks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out.Stacks[k] += f.Stacks[k]
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
