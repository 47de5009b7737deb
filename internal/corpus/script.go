package corpus

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/activity"
	"repro/internal/app"
	"repro/internal/intent"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

// Op is one scripted action kind.
type Op uint8

// Script operations. The benign walk uses the first three (user
// actions); attack overlays use the rest (malware actions — none of
// them count as user activity, which is exactly what the watchdog's
// user-quiet gate keys on).
const (
	// OpTouch is a user touch: wakes the screen, resets the idle timeout.
	OpTouch Op = iota
	// OpLaunch is the user tapping Pkg's icon (implies a touch).
	OpLaunch
	// OpHome is the user pressing the home button (implies a touch).
	OpHome
	// OpWakeAcquire is the malware taking its partial wakelock, keeping
	// the CPU awake through an otherwise-suspended idle span.
	OpWakeAcquire
	// OpWakeRelease drops the malware's wakelock.
	OpWakeRelease
	// OpHijack is the malware background-starting Pkg's energy-hungry
	// activity (attack #1's move, scripted).
	OpHijack
	// OpHijackFinish destroys the activity a prior OpHijack started.
	OpHijackFinish
	// OpBind is the malware binding the victim's Work service (attack
	// #3's service pin).
	OpBind
	// OpUnbind releases the pin.
	OpUnbind
	// OpShove is the malware sending a home intent, pushing every
	// hijacked activity to the background where residual drain hides.
	OpShove
)

var opNames = [...]string{
	OpTouch: "touch", OpLaunch: "launch", OpHome: "home",
	OpWakeAcquire: "wake-acquire", OpWakeRelease: "wake-release",
	OpHijack: "hijack", OpHijackFinish: "hijack-finish",
	OpBind: "bind", OpUnbind: "unbind", OpShove: "shove",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Step is one timed action. At is the virtual offset from script start.
type Step struct {
	At  time.Duration `json:"at"`
	Op  Op            `json:"op"`
	Pkg string        `json:"pkg,omitempty"`
}

// ScriptScreenTimeout is the screen idle timeout every corpus script
// installs. It is deliberately shorter than the watchdog window (30 s):
// the screen afterglow after the user's last touch then covers at most
// a third of the one judged window it can bleed into, keeping benign
// post-session windows well under the 4x spike gate. Touch cadences
// must stay under it so sessions never go dark mid-dwell (Validate
// enforces this).
const ScriptScreenTimeout = 10 * time.Second

// Script is one fully generated corpus scenario: the benign archetype
// walk with the cell's attack overlay merged in, as a flat timed step
// list. A Script is a pure function of (Cell, Seed, Params) — same
// inputs, byte-identical script — which is what makes corpus replay
// deterministic across runs and across fleet worker counts.
type Script struct {
	Cell          Cell          `json:"cell"`
	Seed          int64         `json:"seed"`
	Horizon       time.Duration `json:"horizon"`
	ScreenTimeout time.Duration `json:"screen_timeout"`
	// ChargeStart and ChargeEnd bound the diurnal charge window: the
	// device idles (plugged in, user asleep) through this whole span.
	ChargeStart time.Duration `json:"charge_start"`
	ChargeEnd   time.Duration `json:"charge_end"`
	Steps       []Step        `json:"steps"`
}

// segment is one screen-off idle span of the benign walk; overlays
// mount attacks inside these (that is where real drain malware hides).
type segment struct {
	start, end time.Duration
	// charging marks the segment covering the diurnal charge window.
	charging bool
}

func (g segment) dur() time.Duration { return g.end - g.start }

// Generate builds the script for one corpus cell from a seed. The
// benign archetype walk is generated first; the cell's attack variant
// then overlays malware steps into the walk's idle segments; the merged
// list is sorted by time (stable, so the generation order breaks ties
// deterministically). The returned script is the caller's; Play
// generates the same script into reused buffers when the caller only
// applies it.
func Generate(cell Cell, seed int64, p Params) (*Script, error) {
	var g generator
	if err := g.generate(cell, seed, p); err != nil {
		return nil, err
	}
	s := g.s
	return &s, nil
}

// Play generates the script for (cell, seed, p) and applies it to w:
// Generate followed by Script.Apply, with the script built in a pooled
// generator's buffers instead of fresh ones. Apply keeps no reference
// to the steps, so the generator goes back to the pool on return.
func Play(w *scenario.World, cell Cell, seed int64, p Params) error {
	g := generators.Get().(*generator)
	defer generators.Put(g)
	if err := g.generate(cell, seed, p); err != nil {
		return err
	}
	return g.s.Apply(w)
}

// generators holds idle generators for Play; each fleet worker takes
// one per device, so the pool stays about as large as the worker count.
var generators = sync.Pool{New: func() any { return new(generator) }}

// generator is the state of one script generation: the random stream,
// the script whose step list it fills, and the benign walk's idle
// segments. Every generate call resets all three, keeping only the
// slices' capacity, so a reused generator allocates nothing once its
// buffers have grown to a script's size.
type generator struct {
	rng   *rand.Rand
	s     Script
	idles []segment
}

// generate fills g.s with the script for (cell, seed, p). Its random
// stream is rand.NewSource(seed)'s, drawn from a source that seeds in
// O(1) (source.go), and reseeding restarts that stream, so a reused
// generator yields the same script as a fresh one.
func (g *generator) generate(cell Cell, seed int64, p Params) error {
	if err := p.fill(); err != nil {
		return err
	}
	model := models()[cell.Archetype]
	if model == nil {
		return fmt.Errorf("corpus: unknown archetype %q", cell.Archetype)
	}
	if g.rng == nil {
		g.rng = rand.New(newSource(seed))
	} else {
		g.rng.Seed(seed)
	}
	g.s = Script{
		Cell:          cell,
		Seed:          seed,
		Horizon:       p.Horizon,
		ScreenTimeout: ScriptScreenTimeout,
		ChargeStart:   quantizeSec(time.Duration(float64(p.Horizon) * chargeStartFrac)),
		ChargeEnd:     quantizeSec(time.Duration(float64(p.Horizon) * chargeEndFrac)),
		Steps:         g.s.Steps[:0],
	}
	s, rng := &g.s, g.rng
	g.idles = s.benignWalk(rng, model, g.idles[:0])
	switch cell.Variant {
	case VarBenign:
		// nothing to overlay
	case VarIntermittent:
		s.overlayIntermittent(rng, g.idles)
	case VarCoordinated:
		s.overlayCoordinated(rng, g.idles)
	case VarChargingAware:
		s.overlayChargingAware(rng, g.idles)
	default:
		return fmt.Errorf("corpus: unknown variant %q", cell.Variant)
	}
	slices.SortStableFunc(s.Steps, func(a, b Step) int { return cmp.Compare(a.At, b.At) })
	return nil
}

func quantizeSec(d time.Duration) time.Duration { return d / time.Second * time.Second }

func (s *Script) step(at time.Duration, op Op, pkg string) {
	s.Steps = append(s.Steps, Step{At: at, Op: op, Pkg: pkg})
}

// benignWalk runs the archetype's Markov chain over the horizon,
// emitting user steps and appending the screen-off idle segments for
// the overlays to idles. The diurnal charge window is forced idle:
// sessions running into it are cut short, and idle spans touching it
// extend through its whole length.
func (s *Script) benignWalk(rng *rand.Rand, m *Model, idles []segment) []segment {
	t := time.Duration(0)
	state := m.Start
	for t < s.Horizon {
		st := &m.States[state]
		if st.Idle() {
			end := t + sampleDur(rng, st.MinDwell, st.MaxDwell)
			if end >= s.ChargeStart && t < s.ChargeEnd && end < s.ChargeEnd {
				end = s.ChargeEnd
			}
			if end > s.Horizon {
				end = s.Horizon
			}
			idles = append(idles, segment{
				start:    t,
				end:      end,
				charging: t <= s.ChargeStart && end >= s.ChargeEnd,
			})
			t = end
			state = m.next(rng, state)
			continue
		}
		// Session: launch, touch at the state's cadence, then either
		// chain straight into the next app (no home press — the
		// background-heavy signature) or go home and idle.
		end := t + sampleDur(rng, st.MinDwell, st.MaxDwell)
		forcedIdle := false
		if t < s.ChargeStart && end >= s.ChargeStart {
			end = s.ChargeStart
			forcedIdle = true
		}
		if end >= s.Horizon {
			end = s.Horizon
			forcedIdle = true
		}
		s.step(t, OpLaunch, st.Pkg)
		for tt := t + sampleDur(rng, st.TouchMin, st.TouchMax); tt < end; tt += sampleDur(rng, st.TouchMin, st.TouchMax) {
			s.step(tt, OpTouch, "")
		}
		next := m.next(rng, state)
		if forcedIdle {
			next = m.Start
		}
		if m.States[next].Idle() && end < s.Horizon {
			s.step(end, OpHome, "")
		}
		t = end
		state = next
	}
	return idles
}

// hijackComponent maps a package to the component an OpHijack starts:
// the camera's recorder (the energy hog) or the app's main activity.
func hijackComponent(pkg string) string {
	if pkg == scenario.PkgCamera {
		return pkg + "/VideoActivity"
	}
	return pkg + "/Main"
}

// Apply replays the script on a freshly populated world, driving the
// engine to each step's instant and issuing the action, then running
// out the remaining horizon. Offsets are relative to the engine's
// current instant, so Apply composes with any prior warm-up the caller
// ran.
func (s *Script) Apply(w *scenario.World) error {
	dev := w.Dev
	if err := dev.Power.SetScreenTimeout(sim.Duration(s.ScreenTimeout)); err != nil {
		return err
	}
	base := dev.Engine.Now()
	var wl *power.Wakelock
	var conn *service.Connection
	hijacked := make(map[string]*activity.Activity)
	for i := range s.Steps {
		st := &s.Steps[i]
		if err := dev.Engine.RunUntil(base.Add(sim.Duration(st.At))); err != nil {
			return err
		}
		var err error
		switch st.Op {
		case OpTouch:
			dev.Power.UserActivity()
		case OpLaunch:
			_, err = dev.Activities.UserStartApp(st.Pkg)
		case OpHome:
			dev.Activities.Home(app.UIDSystem)
		case OpWakeAcquire:
			if wl == nil || !wl.Held() {
				wl, err = dev.Power.Acquire(w.Malware.UID, power.Partial, "corpus-attack")
			}
		case OpWakeRelease:
			if wl != nil && wl.Held() {
				err = wl.Release()
			}
		case OpHijack:
			var a *activity.Activity
			a, err = dev.Activities.StartActivity(intent.Intent{
				Sender:    w.Malware.UID,
				Component: hijackComponent(st.Pkg),
			})
			if err == nil {
				hijacked[st.Pkg] = a
			}
		case OpHijackFinish:
			if a := hijacked[st.Pkg]; a != nil {
				err = dev.Activities.Finish(a)
				delete(hijacked, st.Pkg)
			}
		case OpBind:
			if conn == nil {
				conn, err = dev.Services.Bind(intent.Intent{
					Sender:    w.Malware.UID,
					Component: scenario.PkgVictim + "/Work",
				})
			}
		case OpUnbind:
			if conn != nil {
				err = dev.Services.Unbind(conn)
				conn = nil
			}
		case OpShove:
			dev.Activities.Home(w.Malware.UID)
		default:
			err = fmt.Errorf("corpus: unknown op %v", st.Op)
		}
		if err != nil {
			return fmt.Errorf("corpus: %s step %d (%v %s at %v): %w",
				s.Cell, i, st.Op, st.Pkg, st.At, err)
		}
	}
	return dev.Engine.RunUntil(base.Add(sim.Duration(s.Horizon)))
}
