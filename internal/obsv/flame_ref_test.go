package obsv

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// refFlame is the map-based flame collector that FlameCollector's dense
// buckets and split plans replaced, kept as the reference they must
// match bit for bit: every interval re-splits each app row across a
// scan of the entity snapshot and adds into a map keyed by stack.
type refFlame struct {
	agg     *hw.Aggregator
	pm      *app.PackageManager
	stacks  map[stackKey]float64
	screenJ float64
	systemJ float64
	frames  map[any]string
	ents    []refEntity
	gen     uint64
}

type refEntity struct {
	uid    app.UID
	frame  string
	demand hw.Demand
}

func newRefFlame(agg *hw.Aggregator, pm *app.PackageManager) *refFlame {
	return &refFlame{agg: agg, pm: pm, stacks: make(map[stackKey]float64), frames: make(map[any]string)}
}

func (c *refFlame) Accrue(iv hw.Interval) {
	if gen := c.agg.Generation(); gen != c.gen {
		c.ents = c.ents[:0]
		c.agg.EachEntry(func(key any, uid app.UID, d hw.Demand) {
			f, ok := c.frames[key]
			if !ok {
				if named, ok := key.(interface{ FullName() string }); ok {
					f = named.FullName()
				} else {
					f = "(" + strings.TrimPrefix(fmt.Sprintf("%T", key), "*") + ")"
				}
				f = sanitizeFrame(f)
				c.frames[key] = f
			}
			c.ents = append(c.ents, refEntity{uid: uid, frame: f, demand: d})
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

func (c *refFlame) split(uid app.UID, comp hw.Component, j float64) {
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

func (c *refFlame) Fold() map[string]float64 {
	out := make(map[string]float64, len(c.stacks)+2)
	for k, v := range c.stacks {
		label := sanitizeFrame(fmt.Sprintf("%s#%d", c.pm.Label(k.uid), k.uid))
		out[k.comp.String()+";"+label+";"+k.frame] += v
	}
	if c.screenJ != 0 {
		out["screen;Screen;(display)"] += c.screenJ
	}
	if c.systemJ != 0 {
		out["cpu;System;(idle)"] += c.systemJ
	}
	return out
}

// mustMatchReference fails unless got and want hold the same stacks
// with the same float bits.
func mustMatchReference(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stacks, reference %d:\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: stack %q = %v (present %v), reference %v", what, k, g, ok, w)
		}
	}
}

// TestFlameMatchesReferenceOnCorpus runs every corpus cell, over a few
// seeds and both horizons jobs use, with both collectors and a watchdog
// (whose window flushes set the intervals, as on a job device) attached
// to one device: the folds must agree stack for stack, bit for bit.
// The PowerTutor runs move screen charging off the pseudo-UID, which
// the flame must not notice.
func TestFlameMatchesReferenceOnCorpus(t *testing.T) {
	for ci, cell := range corpus.Cells() {
		for _, seed := range []int64{1, 7} {
			for _, h := range []time.Duration{time.Hour, 4 * time.Hour} {
				for _, policy := range []accounting.Policy{accounting.BatteryStats, accounting.PowerTutor} {
					dev, err := device.New(device.Config{EAndroid: true, Policy: policy})
					if err != nil {
						t.Fatal(err)
					}
					w, err := scenario.Populate(dev)
					if err != nil {
						t.Fatal(err)
					}
					wd, err := NewWatchdog(dev, WatchdogOptions{})
					if err != nil {
						t.Fatal(err)
					}
					wd.Start()
					fc := AttachFlame(dev)
					ref := newRefFlame(dev.Aggregator, dev.Packages)
					dev.Meter.AddSink(ref)
					if err := corpus.Play(w, cell, corpus.ScriptSeed(seed, ci, 0), corpus.Params{Horizon: h}); err != nil {
						t.Fatal(err)
					}
					wd.Finish()
					what := fmt.Sprintf("%s seed %d %v %v", cell, seed, h, policy)
					got, want := fc.Fold().Stacks, ref.Fold()
					if len(want) < 3 {
						t.Fatalf("%s: reference holds only %v", what, want)
					}
					mustMatchReference(t, what, got, want)
				}
			}
		}
	}
}

// TestFlameMatchesReferenceOnEdges feeds both collectors the same
// hand-built intervals across demand changes: two entities sharing one
// frame, a UID whose only entry demands nothing (so every component
// keeps "(self)"), a charged UID no entry names, below and between the
// planned UIDs, an entry taking a cleared one's place in the snapshot,
// a key cleared and set again for another UID, and magnitudes whose
// sums round differently in any other order.
func TestFlameMatchesReferenceOnEdges(t *testing.T) {
	b, err := hw.NewBattery(hw.NexusBatteryJ)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	m, err := hw.NewMeter(e.Now, hw.Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hw.NewAggregator(m)
	if err != nil {
		t.Fatal(err)
	}
	pm := app.NewPackageManager()
	var uids []app.UID
	for _, pkg := range []string{"a", "b", "c", "d"} {
		a := pm.MustInstall(manifest.NewBuilder("com.example."+pkg, pkg).Activity("Main", true).MustBuild())
		uids = append(uids, a.UID)
	}
	ua, ub, uc, ud := uids[0], uids[1], uids[2], uids[3]
	fc := NewFlameCollector(g, pm)
	ref := newRefFlame(g, pm)

	dup1, dup2, other := entity("dup"), entity("dup"), entity("other")
	solo, idle := entity("solo"), entity("idle")
	var plain, plain2 struct{ n int }
	iv := hw.NewInterval(0, 0)
	// Within a generation the first interval charges b and d and the
	// second a and c, whose plans go below and between theirs.
	charged := [][]app.UID{{ub, ud}, {ua, uc}, uids}
	fill := func(scale float64, charge []app.UID) {
		iv = hw.NewInterval(0, 0)
		for i, uid := range charge {
			row := iv.Row(uid)
			row.Add(hw.CPU, scale*float64(i+1)/3)
			row.Add(hw.WiFi, 1e16*scale)
			row.Add(hw.GPS, 1/scale)
			row.Add(hw.Camera, 0.1)
		}
		iv.ScreenJ, iv.SystemJ = scale, 1/scale
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"dup frames", func() error {
			if err := g.Set(&dup1, ub, hw.Demand{CPUUtil: 0.3, WiFi: true}); err != nil {
				return err
			}
			if err := g.Set(&other, ub, hw.Demand{CPUUtil: 0.2, GPS: true}); err != nil {
				return err
			}
			return g.Set(&dup2, ub, hw.Demand{CPUUtil: 0.7, WiFi: true, GPS: true})
		}},
		{"idle entry", func() error { return g.Set(&idle, uc, hw.Demand{}) }},
		{"demand change", func() error { return g.Set(&dup1, ub, hw.Demand{CPUUtil: 0.1, Camera: true}) }},
		{"plain keys", func() error {
			if err := g.Set(&plain, ud, hw.Demand{CPUUtil: 0.2, Audio: true}); err != nil {
				return err
			}
			return g.Set(&plain2, uc, hw.Demand{CPUUtil: 0.3})
		}},
		{"solo below", func() error { return g.Set(&solo, ua, hw.Demand{CPUUtil: 1e-9, WiFi: true}) }},
		{"clear", func() error { return g.Clear(&dup2) }},
		// other slides into dup1's place in the snapshot: same UID,
		// another key and frame.
		{"clear first", func() error { return g.Clear(&dup1) }},
		{"moved key", func() error {
			if err := g.Clear(&solo); err != nil {
				return err
			}
			return g.Set(&solo, ud, hw.Demand{CPUUtil: 0.4, WiFi: true})
		}},
		{"none left", func() error {
			for _, k := range []any{&other, &idle, &plain, &plain2, &solo} {
				if err := g.Clear(k); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for si, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for k, charge := range charged {
			fill(float64(si*3+k)+0.7, charge)
			fc.Accrue(iv)
			ref.Accrue(iv)
			mustMatchReference(t, step.name, fc.Fold().Stacks, ref.Fold())
		}
	}
	if _, ok := ref.Fold()["gps;c#"+fmt.Sprint(uc)+";(self)"]; !ok {
		t.Fatal("no (self) stack for the UID whose entry demands nothing")
	}
}
