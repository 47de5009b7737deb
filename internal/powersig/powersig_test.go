package powersig_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/device"
	"repro/internal/powersig"
	"repro/internal/scenario"
)

func detectorWorld(t *testing.T) (*scenario.World, *powersig.Detector) {
	t.Helper()
	w, err := scenario.NewWorld(device.Config{EAndroid: true, Policy: accounting.BatteryStats})
	if err != nil {
		t.Fatal(err)
	}
	d, err := powersig.NewDetector(w.Dev.Engine, w.Dev.Meter, w.Dev.Packages, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w, d
}

// trainNormal runs a benign observation window and trains signatures.
func trainNormal(t *testing.T, w *scenario.World, d *powersig.Detector) {
	t.Helper()
	d.Start()
	// Normal usage: user opens the victim app for a while, goes home.
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.Dev.Activities.Home(app.UIDSystem)
	if err := w.Dev.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.Train(); err != nil {
		t.Fatal(err)
	}
}

func flagged(d *powersig.Detector, uid app.UID) bool {
	for _, u := range d.Anomalous() {
		if u == uid {
			return true
		}
	}
	return false
}

func TestDetectorCatchesClassicCPUBomb(t *testing.T) {
	w, d := detectorWorld(t)
	if _, err := w.InstallClassicBomber(); err != nil {
		t.Fatal(err)
	}
	trainNormal(t, w, d)
	if err := w.ClassicCPUBomb(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	bomber, err := w.Classic()
	if err != nil {
		t.Fatal(err)
	}
	if !flagged(d, bomber.UID) {
		t.Fatalf("classic CPU bomb not flagged; verdicts = %+v", d.Classify())
	}
}

func TestDetectorCatchesNetworkBomb(t *testing.T) {
	w, d := detectorWorld(t)
	if _, err := w.InstallClassicBomber(); err != nil {
		t.Fatal(err)
	}
	trainNormal(t, w, d)
	if err := w.ClassicNetworkBomb(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	bomber, err := w.Classic()
	if err != nil {
		t.Fatal(err)
	}
	if !flagged(d, bomber.UID) {
		t.Fatal("network bomb not flagged")
	}
}

// TestDetectorCatchesAnimatedGIF: the third classic bomber, a
// foreground page animating a GIF, burns energy in its own name, so
// both the power signatures and the stock battery interface catch it:
// the detector flags the bomber, and it is the top app row of the
// BatteryStats view.
func TestDetectorCatchesAnimatedGIF(t *testing.T) {
	w, d := detectorWorld(t)
	if _, err := w.InstallClassicBomber(); err != nil {
		t.Fatal(err)
	}
	trainNormal(t, w, d)
	if err := w.ClassicAnimatedGIF(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	bomber, err := w.Classic()
	if err != nil {
		t.Fatal(err)
	}
	if !flagged(d, bomber.UID) {
		t.Fatalf("animated-GIF bomber not flagged; verdicts = %+v", d.Classify())
	}
	w.Dev.Flush()
	rows := w.Dev.Android.Entries()
	top := slices.IndexFunc(rows, func(e accounting.Entry) bool { return e.UID >= app.FirstAppUID })
	if top < 0 || rows[top].UID != bomber.UID {
		t.Fatalf("the bomber (uid %d) is not the top app row of the battery view: %+v", bomber.UID, rows)
	}
}

func TestDetectorMissesCollateralMalware(t *testing.T) {
	// The paper's point: the collateral attacker's own trace stays flat,
	// so the power-signature detector never flags it — while E-Android
	// does.
	w, d := detectorWorld(t)
	trainNormal(t, w, d)
	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack3ServicePin(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if flagged(d, w.Malware.UID) {
		t.Fatal("power signatures should NOT catch collateral malware")
	}
	// The energy went somewhere: the victim's trace is hot (misleading
	// the user toward an innocent app)...
	if !flagged(d, w.Victim.UID) {
		t.Fatalf("victim's pinned service should look anomalous; verdicts = %+v", d.Classify())
	}
	// ...but E-Android names the real culprit.
	w.Dev.Flush()
	if w.Dev.EAndroid.CollateralJ(w.Malware.UID) <= 0 {
		t.Fatal("E-Android should charge the malware")
	}
}

func TestDetectorStableUnderNormalUse(t *testing.T) {
	w, d := detectorWorld(t)
	trainNormal(t, w, d)
	// A second, similar normal window must not raise alarms.
	if _, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
		t.Fatal(err)
	}
	if err := w.Dev.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := len(d.Anomalous()); n != 0 {
		t.Fatalf("false positives under normal use: %v", d.Anomalous())
	}
}

func TestTrainRequiresSamples(t *testing.T) {
	w, d := detectorWorld(t)
	_ = w
	if err := d.Train(); err == nil {
		t.Fatal("training with no samples accepted")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	w, d := detectorWorld(t)
	d.Start()
	d.Start() // second start is a no-op
	if err := w.Dev.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.TraceLen(w.Victim.UID) != 5 {
		t.Fatalf("trace len = %d, want 5 (double-start must not double-sample)", d.TraceLen(w.Victim.UID))
	}
	d.Stop()
	d.Stop()
	if err := w.Dev.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.TraceLen(w.Victim.UID) != 5 {
		t.Fatal("sampling continued after stop")
	}
}

func TestSignatureStringAndAccessors(t *testing.T) {
	w, d := detectorWorld(t)
	trainNormal(t, w, d)
	sigs := d.Signatures()
	if len(sigs) == 0 {
		t.Fatal("no signatures")
	}
	if !strings.Contains(sigs[0].String(), "sig{uid=") {
		t.Fatalf("sig string = %q", sigs[0].String())
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := powersig.NewDetector(nil, nil, nil, 0); err == nil {
		t.Fatal("nil deps accepted")
	}
}
