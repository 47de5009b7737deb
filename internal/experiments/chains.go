package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accounting"
	"repro/internal/core"
	"repro/internal/scenario"
)

// ChainResult captures an attack-chain experiment: the full attack
// timeline the monitor recorded and the final collateral maps.
type ChainResult struct {
	Name       string
	AttackLog  string
	Maps       map[string][]core.MapEntry // label -> entries
	View       string
	labelOrder []string
}

// Render prints the timeline and the per-app maps.
func (r *ChainResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", r.Name)
	b.WriteString(r.AttackLog)
	b.WriteString("Collateral energy maps:\n")
	for _, label := range r.labelOrder {
		entries := r.Maps[label]
		if len(entries) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s:\n", label)
		for _, e := range entries {
			fmt.Fprintf(&b, "    driven=%d energy=%.2f J\n", e.Driven, e.EnergyJ)
		}
	}
	b.WriteString("Revised battery interface:\n")
	b.WriteString(r.View)
	return b.String()
}

func chainResult(name string, w *scenario.World) *ChainResult {
	w.Dev.Flush()
	res := &ChainResult{
		Name:      name,
		AttackLog: w.Dev.AttackView(),
		Maps:      make(map[string][]core.MapEntry),
		View:      w.Dev.EAndroidView(),
	}
	for _, a := range w.Dev.Packages.Apps() {
		if a.System {
			continue
		}
		entries := w.Dev.EAndroid.CollateralMap(a.UID)
		label := a.Label()
		res.Maps[label] = entries
		res.labelOrder = append(res.labelOrder, label)
	}
	return res
}

// Fig6 regenerates Figure 6: the multi-collateral attack timeline (bind
// + start + interrupt on the same victim, ended step by step).
func Fig6(newWorld WorldFunc) (*ChainResult, error) {
	w, err := newWorld(worldCfg(accounting.BatteryStats))
	if err != nil {
		return nil, err
	}
	if err := w.ForceScreenOn(); err != nil {
		return nil, err
	}
	if err := w.MultiCollateral(); err != nil {
		return nil, err
	}
	return chainResult("Figure 6: multi-collateral attack", w), nil
}

// Fig7 regenerates Figure 7: the hybrid chain (A binds B, B starts C, C
// changes brightness; everything superimposes onto A).
func Fig7(newWorld WorldFunc) (*ChainResult, error) {
	w, err := newWorld(worldCfg(accounting.BatteryStats))
	if err != nil {
		return nil, err
	}
	if err := w.ForceScreenOn(); err != nil {
		return nil, err
	}
	if err := w.HybridChain(); err != nil {
		return nil, err
	}
	return chainResult("Figure 7: hybrid attack chain", w), nil
}
