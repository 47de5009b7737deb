package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/scenario"
)

// Watchdog-vs-attacks study: the live detection counterpart of the
// ext-detection experiment. Where ext-detection compares post-hoc
// detectors, this runs the obsv drain-anomaly watchdog *during* each of
// the paper's six attacks (and both benign scenes) and reports what it
// flagged while the scenario was still in flight — the paper's
// esDiagnose loop as a streaming detector. The expected outcome, which
// the tests assert, is a clean separation: every attack raises at least
// one collateral-divergence finding, both benign scenes raise nothing.
// The discriminator is user absence (see the Watchdog doc): benign
// collateral — Message delegating to the camera — always lands in a
// window the user touched, while every attack sustains its drain
// through the quiet windows after the user walks away.

// WatchdogCase is one scenario's outcome.
type WatchdogCase struct {
	Name string
	// Benign marks the two non-attack scenes.
	Benign bool
	// Findings is the watchdog's output, in detection order.
	Findings []obsv.Finding
	// Flagged reports at least one finding.
	Flagged bool
}

// WatchdogStudyResult is the full study.
type WatchdogStudyResult struct {
	Window time.Duration
	Cases  []WatchdogCase
}

// Render prints the detection table.
func (r *WatchdogStudyResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Watchdog study: streaming drain-anomaly detection vs the six attacks ===\n")
	fmt.Fprintf(&b, "rolling window %v; spike gate %gx baseline (warmup %d windows); divergence gate %gx direct\n",
		r.Window, float64(obsv.DefaultSpikeFactor), obsv.DefaultWarmup, float64(obsv.DefaultDivergenceRatio))
	fmt.Fprintf(&b, "%-28s %-8s %-9s %s\n", "scenario", "kind", "flagged", "signals")
	for _, c := range r.Cases {
		kind := "attack"
		if c.Benign {
			kind = "benign"
		}
		flagged := "no"
		if c.Flagged {
			flagged = fmt.Sprintf("yes (%d)", len(c.Findings))
		}
		fmt.Fprintf(&b, "%-28s %-8s %-9s %s\n", c.Name, kind, flagged, signalSummary(c.Findings))
	}
	return b.String()
}

// signalSummary folds findings into "signal xN" terms, sorted.
func signalSummary(fs []obsv.Finding) string {
	if len(fs) == 0 {
		return "-"
	}
	counts := make(map[string]int)
	for _, f := range fs {
		counts[f.Signal]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	terms := make([]string, 0, len(keys))
	for _, k := range keys {
		terms = append(terms, fmt.Sprintf("%s x%d", k, counts[k]))
	}
	return strings.Join(terms, ", ")
}

// watchdogScenarios lists the study's cases in paper order.
func watchdogScenarios() []struct {
	name   string
	benign bool
	run    func(w *scenario.World) error
} {
	return []struct {
		name   string
		benign bool
		run    func(w *scenario.World) error
	}{
		{"scene1-message-film", true, func(w *scenario.World) error { return w.Scene1MessageFilm() }},
		{"scene2-contacts-chain", true, func(w *scenario.World) error { return w.Scene2ContactsChain() }},
		{"attack1-component-hijack", false, func(w *scenario.World) error {
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.Attack1ComponentHijack(60 * time.Second)
		}},
		{"attack2-background-apps", false, func(w *scenario.World) error {
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.Attack2BackgroundApps(60 * time.Second)
		}},
		{"attack3-service-pin", false, func(w *scenario.World) error {
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.Attack3ServicePin(60 * time.Second)
		}},
		{"attack4-interrupt-quit", false, func(w *scenario.World) error {
			return w.Attack4InterruptQuit(60 * time.Second)
		}},
		{"attack5-brightness", false, func(w *scenario.World) error {
			return w.Attack5Brightness(0, 60*time.Second)
		}},
		{"attack6-wakelock-screen", false, func(w *scenario.World) error {
			return w.Attack6WakelockScreen(60 * time.Second)
		}},
	}
}

// WatchdogStudy runs the watchdog over both benign scenes and all six
// attacks.
func WatchdogStudy() (*WatchdogStudyResult, error) {
	res := &WatchdogStudyResult{Window: obsv.DefaultWindow}
	for _, sc := range watchdogScenarios() {
		w, err := scenario.NewWorld(device.Config{
			EAndroid: true,
			Policy:   accounting.BatteryStats,
		})
		if err != nil {
			return nil, err
		}
		wd, err := obsv.NewWatchdog(w.Dev, obsv.WatchdogOptions{})
		if err != nil {
			return nil, err
		}
		wd.Start()
		if err := sc.run(w); err != nil {
			return nil, fmt.Errorf("watchdog study %s: %w", sc.name, err)
		}
		findings := wd.Finish()
		res.Cases = append(res.Cases, WatchdogCase{
			Name:     sc.name,
			Benign:   sc.benign,
			Findings: findings,
			Flagged:  len(findings) > 0,
		})
	}
	return res, nil
}
