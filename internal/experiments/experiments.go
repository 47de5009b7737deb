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
)

// Renderer is anything that can print itself like a paper figure.
type Renderer interface {
	Render() string
}

// Spec describes one runnable experiment.
type Spec struct {
	ID    string
	Title string
	Run   func() (Renderer, error)
}

// All returns every experiment in paper order.
func All() []Spec {
	return []Spec{
		{"fig1", "Energy view when filming in the Message app", func() (Renderer, error) { return Fig1() }},
		{"fig2", "Collected apps from Google Play (corpus study)", func() (Renderer, error) { return Fig2() }},
		{"fig3", "Time lapsed to drain the battery", func() (Renderer, error) { return Fig3() }},
		{"fig6", "Multi-collateral attack timeline", func() (Renderer, error) { return Fig6() }},
		{"fig7", "Hybrid attack chain", func() (Renderer, error) { return Fig7() }},
		{"fig8", "Energy breakdown by E-Android with revised PowerTutor", func() (Renderer, error) { return Fig8() }},
		{"fig9a", "Scene #1: Message films via Camera", func() (Renderer, error) { return Fig9a() }},
		{"fig9a-pt", "Scene #1 under the PowerTutor policy (omitted in the paper)", func() (Renderer, error) { return Fig9aPowerTutor() }},
		{"fig9b", "Scene #2: Contacts -> Message -> Camera", func() (Renderer, error) { return Fig9b() }},
		{"fig9c", "Attack #3: bind without unbind", func() (Renderer, error) { return Fig9c() }},
		{"fig9d", "Attack #4: interrupt to background", func() (Renderer, error) { return Fig9d() }},
		{"fig9e", "Attack #5: brightness escalation", func() (Renderer, error) { return Fig9e() }},
		{"fig9f", "Attack #6: unreleased screen wakelock", func() (Renderer, error) { return Fig9f() }},
		{"fig10", "Micro benchmark boxplots (Table I ops)", func() (Renderer, error) { return Fig10() }},
		{"fig11", "AnTuTu benchmark", func() (Renderer, error) { return Fig11() }},
		{"ext-detection", "Extension: battery interface vs power signatures vs E-Android", func() (Renderer, error) { return ExtDetection() }},
		{"ext-stealth", "Extension: stealth auto-launch on unlock", func() (Renderer, error) { return ExtStealth() }},
		{"ext-fleet", "Extension: fleet-parallel stealth + drain studies", func() (Renderer, error) { return ExtFleet() }},
		{"ext-telemetry", "Extension: telemetry overhead study (paper §VI-C analog)", func() (Renderer, error) { return TelemetryStudy.Run(0) }},
		{"ext-obsv", "Extension: live watchdog vs the six attacks", func() (Renderer, error) { return WatchdogStudy() }},
		{"ext-corpus", "Extension: generated scenario corpus replay with confidence intervals", func() (Renderer, error) { return ExtCorpus() }},
		{"ext-jobs", "Extension: simulation-as-a-service jobs plane with content-addressed cache", func() (Renderer, error) { return ExtJobs() }},
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
