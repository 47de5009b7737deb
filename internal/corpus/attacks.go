package corpus

import (
	"math/rand"
	"time"

	"repro/internal/scenario"
)

// Overlay shape parameters. All attacks mount inside the benign walk's
// screen-off idle segments — drain malware that runs while the user is
// looking at the screen gets caught by the user, not by a profiler —
// and keep a margin from the segment edges so an attack step never
// collides with a session step.
const (
	// burstMin/burstMax bound one intermittent drain burst. A burst
	// always spans at least one full watchdog window (30 s), so each
	// burst is independently detectable.
	burstMin = 60 * time.Second
	burstMax = 120 * time.Second
	// burstGapMin/burstGapMax separate bursts — the low-and-slow pacing
	// that keeps cumulative drain under any long-horizon rate alarm.
	burstGapMin = 8 * time.Minute
	burstGapMax = 15 * time.Minute
	// idleMargin keeps attack steps clear of idle-segment edges (and of
	// the screen afterglow after the user's last touch).
	idleMargin = 90 * time.Second
)

// overlayIntermittent mounts the low-and-slow drain: short
// wakelock+service-pin bursts tucked into every idle segment long
// enough to hide one, separated by long gaps. The diurnal charge
// segment is always long enough, so every generated script carries at
// least one burst.
func (s *Script) overlayIntermittent(rng *rand.Rand, idles []segment) {
	for _, g := range idles {
		t := g.start + idleMargin + sampleDur(rng, 0, 30*time.Second)
		for {
			burst := sampleDur(rng, burstMin, burstMax)
			if t+burst+idleMargin > g.end {
				break
			}
			s.step(t, OpWakeAcquire, "")
			s.step(t+time.Second, OpBind, "")
			s.step(t+burst, OpUnbind, "")
			s.step(t+burst+time.Second, OpWakeRelease, "")
			t += burst + sampleDur(rng, burstGapMin, burstGapMax)
		}
	}
}

// overlayCoordinated mounts the multi-app collateral attack in the
// charge window: the malware background-starts three victims at once,
// pins the victim's service, and shoves everything to the background.
// Each victim's individual residual drain is modest; the malware's
// aggregate collateral is what gives it away. The backgrounded
// activities are deliberately left alive after the window — residual
// collateral that keeps trickling is part of this variant's signature.
func (s *Script) overlayCoordinated(rng *rand.Rand, idles []segment) {
	g := chargingSegment(idles)
	t0 := max(g.start, s.ChargeStart) + 5*time.Minute + sampleDur(rng, 0, 5*time.Minute)
	t1 := t0 + sampleDur(rng, 20*time.Minute, 30*time.Minute)
	if limit := s.ChargeEnd - 2*time.Minute; t1 > limit {
		t1 = limit
	}
	s.step(t0, OpWakeAcquire, "")
	s.step(t0+1*time.Second, OpHijack, scenario.PkgVictim)
	s.step(t0+2*time.Second, OpHijack, scenario.PkgMessage)
	s.step(t0+3*time.Second, OpHijack, scenario.PkgContacts)
	s.step(t0+4*time.Second, OpBind, "")
	s.step(t0+5*time.Second, OpShove, "")
	s.step(t1, OpUnbind, "")
	s.step(t1+time.Second, OpWakeRelease, "")
}

// overlayChargingAware mounts the camera hijack only inside the charge
// window, when the rising battery percentage masks the drain and the
// user is asleep: acquire, hijack the recorder, hold it for most of the
// window, tear down before the window ends.
func (s *Script) overlayChargingAware(rng *rand.Rand, idles []segment) {
	t0 := s.ChargeStart + 2*time.Minute + sampleDur(rng, 0, 3*time.Minute)
	t1 := t0 + sampleDur(rng, 25*time.Minute, 45*time.Minute)
	if limit := s.ChargeEnd - 2*time.Minute; t1 > limit {
		t1 = limit
	}
	s.step(t0, OpWakeAcquire, "")
	s.step(t0+time.Second, OpHijack, scenario.PkgCamera)
	s.step(t1, OpHijackFinish, scenario.PkgCamera)
	s.step(t1+time.Second, OpWakeRelease, "")
}

// chargingSegment returns the idle segment covering the charge window
// (the benign walk always produces exactly one), falling back to the
// longest segment if construction ever changes.
func chargingSegment(idles []segment) segment {
	var longest segment
	for _, g := range idles {
		if g.charging {
			return g
		}
		if g.dur() > longest.dur() {
			longest = g
		}
	}
	return longest
}
