// Package experiments regenerates every table and figure in the paper's
// evaluation: one entry point per experiment, each returning structured
// results plus a textual rendering that mirrors what the paper reports.
// The cmd/ tools print these renderings; the root bench suite runs the
// same entry points under testing.B.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/scenario"
)

// Renderer is anything that can print itself like a paper figure.
type Renderer interface {
	Render() string
}

// WorldFunc builds one experiment world from the config the experiment
// asks for. scenario.NewWorld is the plain one; a caller that observes
// every world (a recorder, checker options, a flame collector) passes a
// function that adds them to the config or to the built device.
type WorldFunc func(device.Config) (*scenario.World, error)

// FinishChecks runs the end-of-run checks of every world (the
// checker's final aggregator audit and, when enabled, its differential
// envelope; Device.FinishChecks) and returns the first violation any
// world recorded as a *check.ViolationError. A caller whose WorldFunc
// keeps the worlds it builds calls it once the experiment returns;
// worlds built without a checker pass.
func FinishChecks(worlds []*scenario.World) error {
	for _, w := range worlds {
		if vs := w.Dev.FinishChecks(); len(vs) > 0 {
			return &check.ViolationError{V: vs[0]}
		}
	}
	return nil
}

// worldCfg is the E-Android device an experiment world starts from.
func worldCfg(policy accounting.Policy) device.Config {
	return device.Config{EAndroid: true, Policy: policy}
}

// Spec describes one runnable experiment. Run builds every scenario
// world through newWorld; the experiments that build none ignore it.
type Spec struct {
	ID    string
	Title string
	Run   func(newWorld WorldFunc) (Renderer, error)
}

// All returns every experiment in paper order.
func All() []Spec {
	return []Spec{
		{"fig1", "Energy view when filming in the Message app", func(newWorld WorldFunc) (Renderer, error) { return Fig1(newWorld) }},
		{"fig2", "Collected apps from Google Play (corpus study)", func(WorldFunc) (Renderer, error) { return Fig2() }},
		{"fig3", "Time lapsed to drain the battery", func(newWorld WorldFunc) (Renderer, error) { return Fig3(newWorld) }},
		{"fig6", "Multi-collateral attack timeline", func(newWorld WorldFunc) (Renderer, error) { return Fig6(newWorld) }},
		{"fig7", "Hybrid attack chain", func(newWorld WorldFunc) (Renderer, error) { return Fig7(newWorld) }},
		{"fig8", "Energy breakdown by E-Android with revised PowerTutor", func(newWorld WorldFunc) (Renderer, error) { return Fig8(newWorld) }},
		{"fig9a", "Scene #1: Message films via Camera", func(newWorld WorldFunc) (Renderer, error) { return Fig9a(newWorld) }},
		{"fig9a-pt", "Scene #1 under the PowerTutor policy (omitted in the paper)", func(newWorld WorldFunc) (Renderer, error) { return Fig9aPowerTutor(newWorld) }},
		{"fig9b", "Scene #2: Contacts -> Message -> Camera", func(newWorld WorldFunc) (Renderer, error) { return Fig9b(newWorld) }},
		{"fig9c", "Attack #3: bind without unbind", func(newWorld WorldFunc) (Renderer, error) { return Fig9c(newWorld) }},
		{"fig9d", "Attack #4: interrupt to background", func(newWorld WorldFunc) (Renderer, error) { return Fig9d(newWorld) }},
		{"fig9e", "Attack #5: brightness escalation", func(newWorld WorldFunc) (Renderer, error) { return Fig9e(newWorld) }},
		{"fig9f", "Attack #6: unreleased screen wakelock", func(newWorld WorldFunc) (Renderer, error) { return Fig9f(newWorld) }},
		{"fig10", "Micro benchmark boxplots (Table I ops)", func(WorldFunc) (Renderer, error) { return Fig10() }},
		{"fig11", "AnTuTu benchmark", func(WorldFunc) (Renderer, error) { return Fig11() }},
		{"ext-detection", "Extension: battery interface vs power signatures vs E-Android", func(newWorld WorldFunc) (Renderer, error) { return ExtDetection(newWorld) }},
		{"ext-stealth", "Extension: stealth auto-launch on unlock", func(newWorld WorldFunc) (Renderer, error) { return ExtStealth(newWorld) }},
		{"ext-fleet", "Extension: fleet-parallel stealth + drain studies", func(WorldFunc) (Renderer, error) { return ExtFleet() }},
		{"ext-telemetry", "Extension: telemetry overhead study (paper §VI-C analog)", func(WorldFunc) (Renderer, error) { return TelemetryStudy.Run(0) }},
		{"ext-obsv", "Extension: live watchdog vs the six attacks", func(newWorld WorldFunc) (Renderer, error) { return WatchdogStudy(newWorld) }},
		{"ext-corpus", "Extension: generated scenario corpus replay with confidence intervals", func(WorldFunc) (Renderer, error) { return ExtCorpus() }},
		{"ext-jobs", "Extension: simulation-as-a-service jobs plane with content-addressed cache", func(WorldFunc) (Renderer, error) { return ExtJobs() }},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Spec, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	var ids []string
	for _, s := range All() {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	return Spec{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}
