package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/accounting"
)

// StealthResult is the extension experiment around §V's delivery story:
// the malware auto-launches from the ACTION_USER_PRESENT broadcast,
// hijacks the camera from the background and never touches the
// foreground.
type StealthResult struct {
	MalwareForegroundTime time.Duration
	MalwareBaselineJ      float64
	MalwareCollateralJ    float64
	View                  string
}

// Render prints the stealth report.
func (r *StealthResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Extension: stealth auto-launch (ACTION_USER_PRESENT) ===\n")
	fmt.Fprintf(&b, "malware foreground time: %s (never visible)\n", r.MalwareForegroundTime)
	fmt.Fprintf(&b, "malware baseline energy: %.2f J\n", r.MalwareBaselineJ)
	fmt.Fprintf(&b, "malware collateral (E-Android): %.2f J\n", r.MalwareCollateralJ)
	b.WriteString(r.View)
	return b.String()
}

// ExtStealth runs the stealth auto-launch attack for 60 s.
func ExtStealth(newWorld WorldFunc) (*StealthResult, error) {
	w, err := newWorld(worldCfg(accounting.BatteryStats))
	if err != nil {
		return nil, err
	}
	if err := w.ForceScreenOn(); err != nil {
		return nil, err
	}
	if err := w.StealthAutoLaunch(60 * time.Second); err != nil {
		return nil, err
	}
	w.Dev.Flush()
	return &StealthResult{
		MalwareForegroundTime: w.Dev.Android.ForegroundTime(w.Malware.UID),
		MalwareBaselineJ:      w.Dev.Android.AppJ(w.Malware.UID),
		MalwareCollateralJ:    w.Dev.EAndroid.CollateralJ(w.Malware.UID),
		View:                  w.Dev.EAndroidView(),
	}, nil
}
