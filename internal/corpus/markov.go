package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/scenario"
)

// State is one node of an archetype's Markov interaction model: either
// the idle state (screen off, phone pocketed) or a foreground session
// in one app, with a dwell-time range and — for sessions — the touch
// cadence that models the user scrolling and tapping (each touch resets
// the screen timeout, so sessions keep the screen lit and every
// watchdog window they span stays interactive).
type State struct {
	// Name labels the state in renders and tests.
	Name string
	// Pkg is the session's package; empty marks the idle state.
	Pkg string
	// MinDwell and MaxDwell bound the sampled stay in this state.
	MinDwell, MaxDwell time.Duration
	// TouchMin and TouchMax bound the gap between user touches during
	// a session. Both must stay under ScriptScreenTimeout so a session
	// never lets the screen lapse mid-dwell.
	TouchMin, TouchMax time.Duration
}

// Idle reports whether the state is the screen-off idle state.
func (s *State) Idle() bool { return s.Pkg == "" }

// Model is one archetype's Markov interaction chain: states plus a
// row-stochastic transition matrix over them. Row i gives the
// distribution of the next state after leaving state i; the diagonal is
// zero (staying longer is modeled by the dwell distribution, not by
// self-loops), so no state is absorbing by construction — a property
// the tests pin.
type Model struct {
	Archetype Archetype
	States    []State
	// Start is the boot state index (idle for every archetype).
	Start int
	Trans [][]float64
}

// State indices shared by all archetype models.
const (
	stIdle = iota
	stMessage
	stCamera
	stContacts
	stVictim
	stGame
	numStates
)

// baseStates returns the shared state set; per-archetype models adjust
// the dwell and touch ranges.
func baseStates() []State {
	return []State{
		{Name: "idle"},
		{Name: "message", Pkg: scenario.PkgMessage},
		{Name: "camera", Pkg: scenario.PkgCamera},
		{Name: "contacts", Pkg: scenario.PkgContacts},
		{Name: "victim", Pkg: scenario.PkgVictim},
		{Name: "game", Pkg: scenario.PkgMalware},
	}
}

// dwell sets a state's dwell range; touch sets its touch cadence.
func (m *Model) dwell(i int, min, max time.Duration) {
	m.States[i].MinDwell, m.States[i].MaxDwell = min, max
}

func (m *Model) touchAll(min, max time.Duration) {
	for i := range m.States {
		if !m.States[i].Idle() {
			m.States[i].TouchMin, m.States[i].TouchMax = min, max
		}
	}
}

// models returns every archetype's model, built on first use and then
// shared by every generation in the process, which only reads them;
// ModelFor builds a fresh one a caller may change.
var models = sync.OnceValue(func() map[Archetype]*Model {
	ms := make(map[Archetype]*Model)
	for _, a := range Archetypes() {
		m, err := ModelFor(a)
		if err != nil {
			panic(err)
		}
		ms[a] = m
	}
	return ms
})

// ModelFor builds the named archetype's interaction model. The model is
// the caller's own: changing it changes no generated script.
func ModelFor(a Archetype) (*Model, error) {
	m := &Model{Archetype: a, States: baseStates(), Start: stIdle}
	m.touchAll(3*time.Second, 8*time.Second)
	switch a {
	case ArchCommuter:
		// Frequent short bursts: messaging and contacts on the move,
		// the odd game or photo, medium idle gaps between stops.
		m.dwell(stIdle, 5*time.Minute, 20*time.Minute)
		m.dwell(stMessage, 1*time.Minute, 4*time.Minute)
		m.dwell(stCamera, 45*time.Second, 2*time.Minute)
		m.dwell(stContacts, 45*time.Second, 2*time.Minute)
		m.dwell(stVictim, 1*time.Minute, 3*time.Minute)
		m.dwell(stGame, 1*time.Minute, 4*time.Minute)
		m.Trans = [][]float64{
			//            idle   msg    cam    cont   vict   game
			stIdle:     {0.00, 0.35, 0.10, 0.20, 0.20, 0.15},
			stMessage:  {0.60, 0.00, 0.10, 0.15, 0.10, 0.05},
			stCamera:   {0.70, 0.20, 0.00, 0.05, 0.05, 0.00},
			stContacts: {0.55, 0.35, 0.00, 0.00, 0.10, 0.00},
			stVictim:   {0.70, 0.15, 0.00, 0.05, 0.00, 0.10},
			stGame:     {0.75, 0.15, 0.00, 0.00, 0.10, 0.00},
		}
	case ArchGamer:
		// Long game sessions, long recovery idles, little else.
		m.dwell(stIdle, 10*time.Minute, 30*time.Minute)
		m.dwell(stMessage, 1*time.Minute, 3*time.Minute)
		m.dwell(stCamera, 45*time.Second, 90*time.Second)
		m.dwell(stContacts, 45*time.Second, 90*time.Second)
		m.dwell(stVictim, 1*time.Minute, 2*time.Minute)
		m.dwell(stGame, 8*time.Minute, 20*time.Minute)
		m.Trans = [][]float64{
			stIdle:     {0.00, 0.20, 0.05, 0.05, 0.10, 0.60},
			stMessage:  {0.50, 0.00, 0.05, 0.05, 0.05, 0.35},
			stCamera:   {0.70, 0.15, 0.00, 0.05, 0.05, 0.05},
			stContacts: {0.60, 0.25, 0.00, 0.00, 0.05, 0.10},
			stVictim:   {0.65, 0.10, 0.00, 0.05, 0.00, 0.20},
			stGame:     {0.70, 0.20, 0.02, 0.03, 0.05, 0.00},
		}
	case ArchBackgroundHeavy:
		// Chains app to app without going home: the stack of
		// backgrounded apps grows deep, the pattern that stresses
		// residual background accounting.
		m.dwell(stIdle, 8*time.Minute, 25*time.Minute)
		m.dwell(stMessage, 2*time.Minute, 6*time.Minute)
		m.dwell(stCamera, 1*time.Minute, 3*time.Minute)
		m.dwell(stContacts, 1*time.Minute, 3*time.Minute)
		m.dwell(stVictim, 2*time.Minute, 6*time.Minute)
		m.dwell(stGame, 2*time.Minute, 5*time.Minute)
		m.Trans = [][]float64{
			stIdle:     {0.00, 0.30, 0.10, 0.15, 0.30, 0.15},
			stMessage:  {0.30, 0.00, 0.15, 0.20, 0.25, 0.10},
			stCamera:   {0.30, 0.25, 0.00, 0.10, 0.25, 0.10},
			stContacts: {0.30, 0.30, 0.05, 0.00, 0.25, 0.10},
			stVictim:   {0.30, 0.25, 0.10, 0.15, 0.00, 0.20},
			stGame:     {0.35, 0.25, 0.05, 0.10, 0.25, 0.00},
		}
	case ArchIdleMostly:
		// The phone mostly sleeps; check-ins are rare and very short.
		m.dwell(stIdle, 20*time.Minute, 60*time.Minute)
		m.dwell(stMessage, 30*time.Second, 2*time.Minute)
		m.dwell(stCamera, 30*time.Second, 90*time.Second)
		m.dwell(stContacts, 30*time.Second, 90*time.Second)
		m.dwell(stVictim, 30*time.Second, 2*time.Minute)
		m.dwell(stGame, 45*time.Second, 2*time.Minute)
		m.Trans = [][]float64{
			stIdle:     {0.00, 0.45, 0.05, 0.25, 0.15, 0.10},
			stMessage:  {0.80, 0.00, 0.00, 0.10, 0.10, 0.00},
			stCamera:   {0.85, 0.10, 0.00, 0.05, 0.00, 0.00},
			stContacts: {0.75, 0.20, 0.00, 0.00, 0.05, 0.00},
			stVictim:   {0.85, 0.10, 0.00, 0.05, 0.00, 0.00},
			stGame:     {0.85, 0.10, 0.00, 0.00, 0.05, 0.00},
		}
	default:
		return nil, fmt.Errorf("corpus: unknown archetype %q", a)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// transEps is the row-sum tolerance for hand-written matrices.
const transEps = 1e-9

// Validate checks the structural properties the sampler relies on:
// square row-stochastic matrix, non-negative entries, zero diagonal
// (no absorbing state — every state can be left with probability 1),
// and dwell/touch ranges that are ordered and positive.
func (m *Model) Validate() error {
	n := len(m.States)
	if n == 0 || len(m.Trans) != n {
		return fmt.Errorf("corpus: %s: %d states but %d transition rows", m.Archetype, n, len(m.Trans))
	}
	for i, row := range m.Trans {
		if len(row) != n {
			return fmt.Errorf("corpus: %s: row %d has %d entries, want %d", m.Archetype, i, len(row), n)
		}
		var sum float64
		for j, p := range row {
			if p < 0 {
				return fmt.Errorf("corpus: %s: negative probability %v at [%d][%d]", m.Archetype, p, i, j)
			}
			sum += p
		}
		if math.Abs(sum-1) > transEps {
			return fmt.Errorf("corpus: %s: row %d sums to %v, want 1", m.Archetype, i, sum)
		}
		if row[i] > 1-transEps {
			return fmt.Errorf("corpus: %s: state %d is absorbing", m.Archetype, i)
		}
	}
	for i := range m.States {
		st := &m.States[i]
		if st.Idle() {
			continue
		}
		if st.MinDwell <= 0 || st.MaxDwell < st.MinDwell {
			return fmt.Errorf("corpus: %s: state %s dwell range [%v, %v] invalid",
				m.Archetype, st.Name, st.MinDwell, st.MaxDwell)
		}
		if st.TouchMin <= 0 || st.TouchMax < st.TouchMin || st.TouchMax >= ScriptScreenTimeout {
			return fmt.Errorf("corpus: %s: state %s touch cadence [%v, %v] must be positive, ordered and under the %v screen timeout",
				m.Archetype, st.Name, st.TouchMin, st.TouchMax, ScriptScreenTimeout)
		}
	}
	if s := &m.States[m.Start]; s.MinDwell <= 0 || s.MaxDwell < s.MinDwell {
		return fmt.Errorf("corpus: %s: start state dwell range invalid", m.Archetype)
	}
	return nil
}

// next samples the successor of state cur.
func (m *Model) next(rng *rand.Rand, cur int) int {
	u := rng.Float64()
	var acc float64
	for j, p := range m.Trans[cur] {
		acc += p
		if u < acc {
			return j
		}
	}
	// Float round-off on the last row entry: take the last positive one.
	for j := len(m.Trans[cur]) - 1; j >= 0; j-- {
		if m.Trans[cur][j] > 0 {
			return j
		}
	}
	return cur
}

// JumpStationary returns the stationary distribution of the embedded
// jump chain by power iteration. The chains here are small, irreducible
// and aperiodic, so a fixed iteration count converges far below the
// tolerance the tests assert.
func (m *Model) JumpStationary() []float64 {
	n := len(m.States)
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < 500; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[j] += float64(pi[i] * m.Trans[i][j])
			}
		}
		pi, next = next, pi
	}
	return pi
}

// meanDwell is the midpoint of a state's dwell range.
func (s *State) meanDwell() float64 {
	return (s.MinDwell + s.MaxDwell).Seconds() / 2
}

// Occupancy returns the long-run fraction of virtual time spent in each
// state: the jump-chain stationary distribution weighted by expected
// dwell and renormalized. This is the number behavioural sanity tests
// assert against (an idle-mostly user must mostly idle; a gamer must
// out-game every other app).
func (m *Model) Occupancy() []float64 {
	pi := m.JumpStationary()
	occ := make([]float64, len(pi))
	var total float64
	for i := range pi {
		occ[i] = float64(pi[i] * m.States[i].meanDwell())
		total += occ[i]
	}
	for i := range occ {
		occ[i] /= total
	}
	return occ
}

// sampleDur draws a second-quantized duration uniformly from [min, max].
// Quantization keeps scripts human-readable and makes golden diffs
// stable against Duration printing quirks.
func sampleDur(rng *rand.Rand, min, max time.Duration) time.Duration {
	lo, hi := min/time.Second, max/time.Second
	if hi <= lo {
		return lo * time.Second
	}
	return (lo + time.Duration(rng.Int63n(int64(hi-lo+1)))) * time.Second
}
