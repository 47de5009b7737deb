// Package corpus is the scenario-diversity layer over internal/scenario:
// a deterministic, seed-parameterized generator of realistic usage
// scripts. Where the scenario package scripts the paper's six
// hand-written attacks and two benign scenes, this package generates a
// *population* of them — user archetypes (commuter, gamer,
// background-heavy, idle-mostly) modeled as Markov interaction chains
// over app launches, foreground dwell, touch cadence and screen
// toggles, with a diurnal charge/idle window, plus new attack variants
// beyond the six classics (intermittent low-and-slow drain, coordinated
// multi-app collateral, charging-window-aware camera hijack) composable
// onto any benign archetype.
//
// Everything is a pure function of (cell, seed, params): the same seed
// always yields the byte-identical Script, so replayed populations are
// reproducible and the statistical harness in corpus/replay can gate CI
// on confidence intervals rather than single point estimates.
//
// Generate returns a script its caller keeps. Play generates the same
// script into a pooled generator's reused buffers and applies it to a
// world; fleet devices, jobs and the replay harness run scripts that
// way, so a device allocates nothing for its script once the pool is
// warm. The archetype models behind both are built once per process
// and only read.
package corpus

import (
	"fmt"
	"time"
)

// Archetype names a generated user behaviour model.
type Archetype string

// The four user archetypes.
const (
	// ArchCommuter uses the phone in frequent short bursts with
	// medium idle gaps — the transit pattern.
	ArchCommuter Archetype = "commuter"
	// ArchGamer runs long foreground game sessions with rare other
	// apps and long recovery idles.
	ArchGamer Archetype = "gamer"
	// ArchBackgroundHeavy chains app to app without returning home, so
	// a deep stack of backgrounded apps accumulates.
	ArchBackgroundHeavy Archetype = "background-heavy"
	// ArchIdleMostly leaves the phone alone except for rare, very
	// short check-ins.
	ArchIdleMostly Archetype = "idle-mostly"
)

// Archetypes returns every archetype in canonical (corpus-cell) order.
func Archetypes() []Archetype {
	return []Archetype{ArchCommuter, ArchGamer, ArchBackgroundHeavy, ArchIdleMostly}
}

// Variant names an attack overlay composed onto a benign archetype
// timeline. These are deliberately *not* the paper's six classics — the
// classics are point scenes; these are population-scale shapes designed
// to probe the watchdog's thresholds.
type Variant string

// The attack variants.
const (
	// VarBenign is the pure archetype timeline with no attack.
	VarBenign Variant = "benign"
	// VarIntermittent is the low-and-slow drain: short malware
	// service-pin bursts (a partial wakelock plus a bind of the
	// victim's service) separated by long gaps, tucked into the user's
	// idle periods so no cumulative-rate detector would trip.
	VarIntermittent Variant = "intermittent-drain"
	// VarCoordinated is coordinated multi-app collateral: the malware
	// background-starts several victims at once and shoves them all to
	// the background, so each victim's individual drain stays modest
	// while the malware's aggregate collateral is large.
	VarCoordinated Variant = "coordinated-collateral"
	// VarChargingAware is the charging-window-aware hijack: the
	// malware mounts a camera hijack only inside the diurnal charge
	// window, when battery-percentage symptoms are masked and the user
	// is asleep.
	VarChargingAware Variant = "charging-aware"
)

// Variants returns every variant in canonical order, benign first.
func Variants() []Variant {
	return []Variant{VarBenign, VarIntermittent, VarCoordinated, VarChargingAware}
}

// Benign reports whether the variant carries no attack.
func (v Variant) Benign() bool { return v == VarBenign }

// Cell is one (archetype × variant) coordinate of the corpus.
type Cell struct {
	Archetype Archetype
	Variant   Variant
}

// String renders the cell as "archetype/variant".
func (c Cell) String() string { return string(c.Archetype) + "/" + string(c.Variant) }

// Cells returns the full corpus grid in canonical order:
// archetype-major, benign variant first within each archetype (so a
// two-cell smoke run covers one benign and one attack cell).
func Cells() []Cell {
	var cells []Cell
	for _, a := range Archetypes() {
		for _, v := range Variants() {
			cells = append(cells, Cell{Archetype: a, Variant: v})
		}
	}
	return cells
}

// Params shapes a generated script. The zero value is the standard
// corpus configuration.
type Params struct {
	// Horizon is the script's total virtual span; zero means
	// DefaultHorizon. Must be at least MinHorizon otherwise.
	Horizon time.Duration
}

// DefaultHorizon is the standard script span: long enough for dozens of
// watchdog windows per behavioural phase, short enough that a full
// 16-cell × 40-rep corpus replays in seconds.
const DefaultHorizon = 4 * time.Hour

// MinHorizon is the shortest span the generator accepts: the diurnal
// charge window and attack overlays need room to breathe.
const MinHorizon = time.Hour

// The diurnal charge window as fractions of the horizon: the compressed
// "night" where the device sits on the charger, screen off, user away.
const (
	chargeStartFrac = 0.55
	chargeEndFrac   = 0.80
)

func (p *Params) fill() error {
	if p.Horizon == 0 {
		p.Horizon = DefaultHorizon
	}
	if p.Horizon < MinHorizon {
		return fmt.Errorf("corpus: horizon %v below minimum %v", p.Horizon, MinHorizon)
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer — the same pure seed-derivation
// pipeline the fleet runner uses for per-device seeds, so any cell/rep
// subset of the corpus can be regenerated in isolation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ScriptSeed derives the generator seed for repetition rep of corpus
// cell index cellIdx from the corpus root seed. Pure, so any cell of a
// replayed population can be re-run alone with identical behaviour.
func ScriptSeed(root int64, cellIdx, rep int) int64 {
	x := splitmix64(uint64(root))
	x = splitmix64(x + uint64(cellIdx)*0x9e3779b97f4a7c15)
	x = splitmix64(x + uint64(rep)*0xbf58476d1ce4e5b9)
	return int64(x)
}
