package obsv

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/powersig"
	"repro/internal/scenario"
)

// obsvFleetExports runs a 4-device stealth fleet on the given worker
// count and renders the two live-export surfaces: the merged Prometheus
// text and the merged collapsed flame. Each device's Scenario runs the
// horizon itself and folds its flame into a slice indexed by device —
// workers own disjoint indices, so the slice needs no lock — and the
// flames merge in device-index order.
func obsvFleetExports(t *testing.T, workers int) (string, string) {
	t.Helper()
	const devices = 4
	flames := make([]*Flame, devices)
	fr, err := fleet.Run(context.Background(), fleet.Spec{
		Devices:   devices,
		Workers:   workers,
		Seed:      42,
		Config:    device.Config{EAndroid: true, Policy: accounting.BatteryStats},
		Telemetry: true,
		Scenario: func(i int, dev *device.Device) error {
			fc := AttachFlame(dev)
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			det, err := powersig.NewDetector(dev.Engine, dev.Meter, dev.Packages, 0)
			if err != nil {
				return err
			}
			det.Start()
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			if err := w.StealthAutoLaunch(60 * time.Second); err != nil {
				return err
			}
			if err := dev.Run(5 * time.Minute); err != nil {
				return err
			}
			flames[i] = fc.Fold()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fr.Summary.Failures {
		t.Fatalf("device %d: %s", f.Index, f.Err)
	}

	var prom strings.Builder
	if err := WritePrometheus(&prom, fr.Metrics); err != nil {
		t.Fatal(err)
	}
	var flame strings.Builder
	if err := MergeFlames(flames...).WriteCollapsed(&flame); err != nil {
		t.Fatal(err)
	}
	return prom.String(), flame.String()
}

// TestLiveExportsByteStableAcrossWorkerCounts is the determinism golden
// for the observability plane: the Prometheus exposition and the energy
// flame rendered from a fleet run must be byte-identical whether the
// fleet ran on 1 worker or 8.
func TestLiveExportsByteStableAcrossWorkerCounts(t *testing.T) {
	prom1, flame1 := obsvFleetExports(t, 1)
	prom8, flame8 := obsvFleetExports(t, 8)
	if prom1 != prom8 {
		t.Errorf("prometheus text differs between 1 and 8 workers:\n--- w1 ---\n%s--- w8 ---\n%s", prom1, prom8)
	}
	if flame1 != flame8 {
		t.Errorf("collapsed flame differs between 1 and 8 workers:\n--- w1 ---\n%s--- w8 ---\n%s", flame1, flame8)
	}
	if !strings.Contains(prom1, "acct_attributions") {
		t.Fatalf("prometheus text looks empty:\n%s", prom1)
	}
	if !strings.Contains(flame1, " ") || len(flame1) == 0 {
		t.Fatalf("flame looks empty: %q", flame1)
	}
}
