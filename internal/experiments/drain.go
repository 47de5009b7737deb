package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/device"
	"repro/internal/display"
	"repro/internal/intent"
	"repro/internal/scenario"
)

// DrainPoint is one sample of a depletion curve.
type DrainPoint struct {
	Hours   float64
	Percent int
}

// DrainCurve is one configuration's battery-percentage-over-time series.
type DrainCurve struct {
	Name   string
	Points []DrainPoint // from 99% down to 0%
}

// HoursToDead reports the time the battery died (the last point).
func (c DrainCurve) HoursToDead() float64 {
	if len(c.Points) == 0 {
		return math.NaN()
	}
	return c.Points[len(c.Points)-1].Hours
}

// Fig3Result holds the five depletion curves of Figure 3.
type Fig3Result struct {
	Curves []DrainCurve
}

// Render prints the per-curve time-to-dead summary and a decile table,
// the same series the paper plots.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("=== Figure 3: difference of time lapsed to drain the battery ===\n")
	b.WriteString("(screen forced on by wakelock in every configuration)\n\n")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-16s battery dead after %5.1f h\n", c.Name, c.HoursToDead())
	}
	b.WriteString("\nbattery %  ")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%16s", c.Name)
	}
	b.WriteString("\n")
	for pct := 90; pct >= 0; pct -= 10 {
		fmt.Fprintf(&b, "%8d%%  ", pct)
		for _, c := range r.Curves {
			h := math.NaN()
			for _, p := range c.Points {
				if p.Percent == pct {
					h = p.Hours
					break
				}
			}
			fmt.Fprintf(&b, "%14.1fh ", h)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// DrainConfigs lists the five Figure 3 configurations in legend order.
func DrainConfigs() []string {
	return []string{"bind_service", "brightness_10", "brightness_full", "brightness_low", "interrupt_app"}
}

// Fig3 sweeps the five configurations until the battery dies, recording
// the elapsed time at every one-percent step, exactly as the paper
// "record[s] the time until the battery is dead" for each percentage.
func Fig3(newWorld WorldFunc) (*Fig3Result, error) {
	return Fig3WithStep(newWorld, 30*time.Second)
}

// Fig3WithStep is Fig3 with a configurable sampling step (tests use a
// coarser step for speed).
func Fig3WithStep(newWorld WorldFunc, step time.Duration) (*Fig3Result, error) {
	if step <= 0 {
		return nil, fmt.Errorf("experiments: non-positive step %v", step)
	}
	res := &Fig3Result{}
	for _, name := range DrainConfigs() {
		curve, err := drainCurve(newWorld, name, step)
		if err != nil {
			return nil, fmt.Errorf("experiments: drain %s: %w", name, err)
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// applyDrainConfig arms one Figure 3 configuration on a populated
// world: screen forced on by wakelock, then the config's brightness or
// attack. Shared by the serial sweep and the fleet-backed variants.
func applyDrainConfig(w *scenario.World, name string) error {
	dev := w.Dev
	// Every configuration forces the screen on via a wakelock, per the
	// paper's setup.
	if err := w.ForceScreenOn(); err != nil {
		return err
	}
	setBrightness := func(level int) error {
		return dev.Display.SetBrightness(app.UIDSystem, display.SourceSystemUI, level)
	}
	switch name {
	case "brightness_low":
		return setBrightness(0)
	case "brightness_10":
		return setBrightness(10)
	case "brightness_full":
		return setBrightness(255)
	case "bind_service":
		if err := setBrightness(0); err != nil {
			return err
		}
		_, err := dev.Services.Bind(intent.Intent{
			Sender:    w.Malware.UID,
			Component: scenario.PkgVictim + "/Work",
		})
		return err
	case "interrupt_app":
		if err := setBrightness(0); err != nil {
			return err
		}
		if _, err := dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
			return err
		}
		// Malware forces the victim into the background, where it keeps
		// draining its residual share.
		dev.Activities.Home(w.Malware.UID)
		return nil
	}
	return fmt.Errorf("unknown drain config %q", name)
}

func drainCurve(newWorld WorldFunc, name string, step time.Duration) (DrainCurve, error) {
	w, err := newWorld(device.Config{Policy: accounting.BatteryStats})
	if err != nil {
		return DrainCurve{}, err
	}
	return drainCurveOn(w, name, step)
}

// drainCurveOn runs one depletion sweep on an already-built world.
func drainCurveOn(w *scenario.World, name string, step time.Duration) (DrainCurve, error) {
	dev := w.Dev
	if err := applyDrainConfig(w, name); err != nil {
		return DrainCurve{}, err
	}

	curve := DrainCurve{Name: name}
	lastPct := 100
	// Guard: no configuration should outlive a week of simulated time.
	const maxHours = 24 * 7
	for !dev.Battery.Dead() {
		if err := dev.Run(step); err != nil {
			return DrainCurve{}, err
		}
		dev.Flush()
		pct := int(dev.Battery.Percent())
		for lastPct > pct {
			lastPct--
			curve.Points = append(curve.Points, DrainPoint{
				Hours:   dev.Engine.Now().Hours(),
				Percent: lastPct,
			})
		}
		if dev.Engine.Now().Hours() > maxHours {
			return DrainCurve{}, fmt.Errorf("battery still alive after %v hours", maxHours)
		}
	}
	return curve, nil
}
