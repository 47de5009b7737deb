// Package hw models the smartphone hardware relevant to energy
// accounting: per-component power draw, the battery, and an exact
// piecewise-constant energy integrator (the Meter).
//
// Power is piecewise-constant between framework events, so the Meter can
// integrate energy exactly — no sampling error. This isolates the paper's
// subject (the *attribution* of energy) from measurement noise: any
// difference between Android's view and E-Android's view is purely
// algorithmic.
package hw

import (
	"fmt"
	"time"
)

// Component identifies a power-drawing hardware block.
type Component int

// The hardware components tracked by the meter.
const (
	CPU Component = iota + 1
	Screen
	Camera
	GPS
	WiFi
	Audio
	numComponents = int(Audio)
)

var componentNames = [...]string{
	CPU:    "cpu",
	Screen: "screen",
	Camera: "camera",
	GPS:    "gps",
	WiFi:   "wifi",
	Audio:  "audio",
}

// String returns the component's lowercase name.
func (c Component) String() string {
	if c >= 1 && int(c) <= numComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Components lists all tracked components in a stable order.
func Components() []Component {
	return []Component{CPU, Screen, Camera, GPS, WiFi, Audio}
}

// Profile holds the power model coefficients, in milliwatts. The values
// are in the range reported by the PowerTutor family of models for
// Nexus-class hardware; the paper's claims depend only on their relative
// magnitudes (screen and camera dominate, suspend is near zero).
type Profile struct {
	// CPUSuspend is total platform draw in deep sleep.
	CPUSuspend float64
	// CPUIdleAwake is platform draw while awake but idle (e.g. a partial
	// wakelock held with no work).
	CPUIdleAwake float64
	// CPUFull is the additional draw of one fully utilized core; an app
	// at utilization u adds u*CPUFull.
	CPUFull float64
	// ScreenBase is screen draw at brightness level 0.
	ScreenBase float64
	// ScreenPerLevel is the additional draw per brightness level (0-255).
	ScreenPerLevel float64
	// CameraOn is camera sensor + ISP draw while capturing.
	CameraOn float64
	// GPSOn is receiver draw while holding a fix.
	GPSOn float64
	// WiFiHigh is the radio's high-power (transmit) state draw.
	WiFiHigh float64
	// WiFiLow is the radio's low-power/tail state draw.
	WiFiLow float64
	// WiFiTail is how long the radio lingers in the low-power state
	// after its last holder releases it. State-machine power models
	// (eprof, AppScope) owe their accuracy edge over pure utilization
	// models to accounting for exactly this kind of tail energy.
	WiFiTail time.Duration
	// AudioOn is the audio DSP draw while playing.
	AudioOn float64
	// CPUFreqs, when non-empty, enables the DVFS CPU model: an
	// ondemand-style governor picks the lowest operating point covering
	// the total utilization, and per-app CPU power scales with that
	// point's cost instead of the linear CPUFull. Empty keeps the linear
	// model.
	CPUFreqs []FreqLevel
}

// Nexus4 returns the default profile, tuned so that the Figure 3
// depletion sweeps land in the paper's 5-15 hour band on an 8.0 Wh
// battery (Nexus 4: 2100 mAh at 3.8 V).
func Nexus4() Profile {
	return Profile{
		CPUSuspend:     6,
		CPUIdleAwake:   120,
		CPUFull:        600,
		ScreenBase:     350,
		ScreenPerLevel: 4.1,
		CameraOn:       1258,
		GPSOn:          429,
		WiFiHigh:       710,
		WiFiLow:        38,
		WiFiTail:       3 * time.Second,
		AudioOn:        384,
	}
}

// Validate rejects physically meaningless profiles.
func (p Profile) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"CPUSuspend", p.CPUSuspend},
		{"CPUIdleAwake", p.CPUIdleAwake},
		{"CPUFull", p.CPUFull},
		{"ScreenBase", p.ScreenBase},
		{"ScreenPerLevel", p.ScreenPerLevel},
		{"CameraOn", p.CameraOn},
		{"GPSOn", p.GPSOn},
		{"WiFiHigh", p.WiFiHigh},
		{"WiFiLow", p.WiFiLow},
		{"AudioOn", p.AudioOn},
	}
	for _, c := range checks {
		if c.v < 0 {
			return fmt.Errorf("hw: profile %s is negative (%v)", c.name, c.v)
		}
	}
	if p.CPUSuspend > p.CPUIdleAwake {
		return fmt.Errorf("hw: suspend draw (%v) exceeds idle-awake draw (%v)",
			p.CPUSuspend, p.CPUIdleAwake)
	}
	if p.WiFiLow > p.WiFiHigh {
		return fmt.Errorf("hw: WiFi low draw (%v) exceeds high draw (%v)",
			p.WiFiLow, p.WiFiHigh)
	}
	if p.WiFiTail < 0 {
		return fmt.Errorf("hw: negative WiFi tail %v", p.WiFiTail)
	}
	return p.validateFreqs()
}

// ScreenPower returns screen draw in mW at the given brightness level,
// clamping the level into [0, 255].
func (p Profile) ScreenPower(brightness int) float64 {
	if brightness < 0 {
		brightness = 0
	}
	if brightness > 255 {
		brightness = 255
	}
	return p.ScreenBase + float64(p.ScreenPerLevel*float64(brightness))
}

// MaxBrightness is the top of Android's 256-level brightness range.
const MaxBrightness = 255

// Battery models a finite energy store.
type Battery struct {
	capacityJ float64
	drainedJ  float64
}

// NexusBatteryJ is the Nexus 4 pack: 2100 mAh * 3.8 V = 7.98 Wh ≈ 28728 J.
const NexusBatteryJ = 2.100 * 3.8 * 3600

// NewBattery returns a full battery with the given capacity in joules.
func NewBattery(capacityJ float64) (*Battery, error) {
	if capacityJ <= 0 {
		return nil, fmt.Errorf("hw: battery capacity must be positive, got %v", capacityJ)
	}
	return &Battery{capacityJ: capacityJ}, nil
}

// Drain removes j joules. Negative drains are rejected; drains past empty
// are clamped to empty.
func (b *Battery) Drain(j float64) error {
	if j < 0 {
		return fmt.Errorf("hw: negative drain %v", j)
	}
	b.drainedJ += j
	if b.drainedJ > b.capacityJ {
		b.drainedJ = b.capacityJ
	}
	return nil
}

// CapacityJ reports the total capacity in joules.
func (b *Battery) CapacityJ() float64 { return b.capacityJ }

// DrainedJ reports cumulative energy drained in joules.
func (b *Battery) DrainedJ() float64 { return b.drainedJ }

// RemainingJ reports the energy left in joules.
func (b *Battery) RemainingJ() float64 { return b.capacityJ - b.drainedJ }

// Percent reports the charge remaining in [0, 100].
func (b *Battery) Percent() float64 {
	return 100 * b.RemainingJ() / b.capacityJ
}

// Dead reports whether the battery is empty.
func (b *Battery) Dead() bool { return b.RemainingJ() <= 0 }
