// Package scenario provides the paper's experimental cast — the Message,
// Camera and Contacts apps, a victim demo app, and the energy malware —
// plus scripted drivers for the two normal scenes (Section VI-A), all
// six collateral energy attacks (Section III-B), and the multi-collateral
// and hybrid-chain cases (Figures 6 and 7).
package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/activity"
	"repro/internal/app"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/display"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/surfaceflinger"
	"repro/internal/telemetry"
)

// Package names for the demo cast.
const (
	PkgMessage  = "com.android.message"
	PkgCamera   = "com.android.camera"
	PkgContacts = "com.android.contacts"
	PkgVictim   = "com.example.victim"
	PkgMalware  = "com.fun.game" // camouflaged as a game, per the paper
)

// World is a device with the demo cast installed.
type World struct {
	Dev      *device.Device
	Message  *app.App
	Camera   *app.App
	Contacts *app.App
	Victim   *app.App
	Malware  *app.App
}

// WorldOptions carries the cross-cutting construction options NewWorld
// threads into every world it builds: the CLIs' telemetry recorder
// (-trace-out/-events-out/-metrics-out), the runtime invariant checker
// options, and a post-construction hook for observers that need the
// concrete device (e.g. the obsv flame-graph collector). Options set
// directly on the device.Config win over these; every built device gets
// its own Checker — only the options pointer is shared.
type WorldOptions struct {
	Telemetry *telemetry.Recorder
	Checks    *check.Options
	Hook      func(*device.Device)
}

// worldMu guards worldDefaults: the CLIs install process defaults once
// at startup, but fleet runners and parallel tests may build worlds
// concurrently, so the default set is read under a lock rather than
// through bare package globals (which raced under -race).
var (
	worldMu       sync.RWMutex
	worldDefaults WorldOptions
)

// SetWorldOptions atomically replaces the process-default options used
// by NewWorld (zero value detaches everything) and returns the previous
// set so callers can restore it.
func SetWorldOptions(opts WorldOptions) WorldOptions {
	worldMu.Lock()
	defer worldMu.Unlock()
	prev := worldDefaults
	worldDefaults = opts
	return prev
}

// DefaultWorldOptions returns a snapshot of the process-default options.
func DefaultWorldOptions() WorldOptions {
	worldMu.RLock()
	defer worldMu.RUnlock()
	return worldDefaults
}

// NewWorld builds a device from cfg with the process-default options
// and installs the demo cast.
func NewWorld(cfg device.Config) (*World, error) {
	return NewWorldWith(cfg, DefaultWorldOptions())
}

// NewWorldWith builds a device from cfg with explicit options — no
// process globals involved, so concurrent builders can each carry their
// own recorder, checker options and hook.
func NewWorldWith(cfg device.Config, opts WorldOptions) (*World, error) {
	if cfg.Telemetry == nil {
		cfg.Telemetry = opts.Telemetry
	}
	if cfg.Checks == nil {
		cfg.Checks = opts.Checks
	}
	dev, err := device.New(cfg)
	if err != nil {
		return nil, err
	}
	if opts.Hook != nil {
		opts.Hook(dev)
	}
	return Populate(dev)
}

// Populate installs the demo cast on an existing device. Fleet runners
// use this: the device is built elsewhere (with a derived seed) and
// only the cast and scripted behaviour come from this package.
func Populate(dev *device.Device) (*World, error) {
	w := &World{Dev: dev}
	var err error

	w.Message, err = dev.Packages.Install(manifest.NewBuilder(PkgMessage, "Message").
		Category("Communication").
		Activity("Main", true, manifest.IntentFilter{
			Actions:    []string{intent.ActionSend},
			Categories: []string{intent.CategoryDefault},
		}).
		MustBuild())
	if err != nil {
		return nil, err
	}
	if err := w.Message.SetWorkload("Main", app.Workload{CPUActive: 0.25, CPUBackground: 0.02}); err != nil {
		return nil, err
	}

	w.Camera, err = dev.Packages.Install(manifest.NewBuilder(PkgCamera, "Camera").
		Category("Photography").
		Permission(manifest.PermWriteSettings).
		Activity("VideoActivity", true, manifest.IntentFilter{
			Actions:    []string{intent.ActionVideoCapture},
			Categories: []string{intent.CategoryDefault},
		}).
		MustBuild())
	if err != nil {
		return nil, err
	}
	if err := w.Camera.SetWorkload("VideoActivity", app.Workload{
		CPUActive: 0.5, CPUBackground: 0.02, Camera: true,
	}); err != nil {
		return nil, err
	}

	w.Contacts, err = dev.Packages.Install(manifest.NewBuilder(PkgContacts, "Contacts").
		Category("Communication").
		Activity("Main", true).
		MustBuild())
	if err != nil {
		return nil, err
	}
	if err := w.Contacts.SetWorkload("Main", app.Workload{CPUActive: 0.15, CPUBackground: 0.01}); err != nil {
		return nil, err
	}

	w.Victim, err = dev.Packages.Install(manifest.NewBuilder(PkgVictim, "Victim").
		Category("Productivity").
		Permission(manifest.PermWakeLock).
		Activity("Main", true).
		Service("Work", true).
		MustBuild())
	if err != nil {
		return nil, err
	}
	if err := w.Victim.SetWorkload("Main", app.Workload{CPUActive: 0.3, CPUBackground: 0.08}); err != nil {
		return nil, err
	}
	if err := w.Victim.SetWorkload("Work", app.Workload{CPUActive: 0.35}); err != nil {
		return nil, err
	}

	w.Malware, err = dev.Packages.Install(manifest.NewBuilder(PkgMalware, "FunGame").
		Category("Game").
		Permission(manifest.PermWakeLock, manifest.PermWriteSettings).
		Activity("Main", true).
		Activity("Overlay", true).
		Service("Daemon", false).
		MustBuild())
	if err != nil {
		return nil, err
	}
	// The malware itself is nearly idle — the whole point is that its
	// own reading stays tiny while victims drain the battery.
	if err := w.Malware.SetWorkload("Main", app.Workload{CPUActive: 0.03, CPUBackground: 0.01}); err != nil {
		return nil, err
	}
	if err := w.Malware.SetWorkload("Daemon", app.Workload{CPUActive: 0.01}); err != nil {
		return nil, err
	}
	w.Malware.HiddenFromRecents = true

	return w, nil
}

func (w *World) run(d time.Duration) error { return w.Dev.Run(d) }

// ForceScreenOn reproduces the paper's experimental setup: "for all
// experiments, we set the wakelock so that the screen will be forced
// on". The lock is held by the system launcher so it never registers as
// a collateral attack itself.
func (w *World) ForceScreenOn() error {
	_, err := w.Dev.Power.Acquire(w.Dev.Activities.Launcher().UID,
		power.ScreenBright, "experiment-screen-on")
	return err
}

// Scene1MessageFilm reproduces normal scene #1 (and the shape of attacks
// #1/#2): the user opens Message, waits 30 s, then films a 30 s video —
// Message sends a VIDEO_CAPTURE intent that the Camera app serves.
func (w *World) Scene1MessageFilm() error {
	if _, err := w.Dev.Activities.UserStartApp(PkgMessage); err != nil {
		return err
	}
	if err := w.run(30 * time.Second); err != nil {
		return err
	}
	// The user taps "Record Video" in the Message UI (a real touch, so
	// the screen wakes / the idle timeout resets).
	w.Dev.Power.UserActivity()
	_, cam, err := w.Dev.Activities.StartActivityImplicit(intent.Intent{
		Sender:     w.Message.UID,
		Action:     intent.ActionVideoCapture,
		Categories: []string{intent.CategoryDefault},
	})
	if err != nil {
		return err
	}
	if cam == nil {
		return fmt.Errorf("scenario: camera start unexpectedly needs a resolver choice")
	}
	if err := w.run(30 * time.Second); err != nil {
		return err
	}
	// Recording done; the video returns to Message.
	w.Dev.Power.UserActivity()
	return w.Dev.Activities.Finish(cam)
}

// Scene2ContactsChain reproduces normal scene #2, the legitimate hybrid
// chain: Contacts opens Message, which films a 30 s video via Camera.
func (w *World) Scene2ContactsChain() error {
	if _, err := w.Dev.Activities.UserStartApp(PkgContacts); err != nil {
		return err
	}
	if err := w.run(10 * time.Second); err != nil {
		return err
	}
	// The user taps a contact, which opens the Message app.
	w.Dev.Power.UserActivity()
	if _, err := w.Dev.Activities.StartActivity(intent.Intent{
		Sender:    w.Contacts.UID,
		Component: PkgMessage + "/Main",
	}); err != nil {
		return err
	}
	if err := w.run(20 * time.Second); err != nil {
		return err
	}
	w.Dev.Power.UserActivity()
	_, cam, err := w.Dev.Activities.StartActivityImplicit(intent.Intent{
		Sender:     w.Message.UID,
		Action:     intent.ActionVideoCapture,
		Categories: []string{intent.CategoryDefault},
	})
	if err != nil {
		return err
	}
	if cam == nil {
		return fmt.Errorf("scenario: camera start unexpectedly needs a resolver choice")
	}
	if err := w.run(30 * time.Second); err != nil {
		return err
	}
	w.Dev.Power.UserActivity()
	return w.Dev.Activities.Finish(cam)
}

// Attack1ComponentHijack: malware hijacks another app's energy-hog
// component (the camera) through a perfectly legal intent, then the user
// returns home; the camera keeps draining in the recorder's own name.
func (w *World) Attack1ComponentHijack(dur time.Duration) error {
	if _, err := w.Dev.Activities.UserStartApp(PkgMalware); err != nil {
		return err
	}
	if _, err := w.Dev.Activities.StartActivity(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgCamera + "/VideoActivity",
	}); err != nil {
		return err
	}
	return w.run(dur)
}

// Attack2BackgroundApps: malware opens other apps and shoves them into
// the background, where they keep draining.
func (w *World) Attack2BackgroundApps(dur time.Duration) error {
	if _, err := w.Dev.Activities.UserStartApp(PkgMalware); err != nil {
		return err
	}
	if _, err := w.Dev.Activities.StartActivity(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgVictim + "/Main",
	}); err != nil {
		return err
	}
	if _, err := w.Dev.Activities.StartActivity(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgMessage + "/Main",
	}); err != nil {
		return err
	}
	// Malware pulls itself back in front; the opened apps sit in the
	// background draining their residual shares.
	if err := w.Dev.Activities.MoveAppToFront(w.Malware.UID, PkgMalware); err != nil {
		return err
	}
	return w.run(dur)
}

// Attack3ServicePin: the victim starts its own service and stops it
// immediately, but the malware's bind keeps it running for the whole
// attack window.
func (w *World) Attack3ServicePin(dur time.Duration) error {
	if _, err := w.Dev.Activities.UserStartApp(PkgVictim); err != nil {
		return err
	}
	if _, err := w.Dev.Services.Start(intent.Intent{
		Sender:    w.Victim.UID,
		Component: PkgVictim + "/Work",
	}); err != nil {
		return err
	}
	// Malware detects the service and binds before the victim stops it.
	if _, err := w.Dev.Services.Bind(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgVictim + "/Work",
	}); err != nil {
		return err
	}
	if err := w.Dev.Services.Stop(w.Victim.UID, PkgVictim+"/Work"); err != nil {
		return err
	}
	return w.run(dur)
}

// Attack4InterruptQuit: the victim holds a screen wakelock it only
// releases in onDestroy(). The malware watches SurfaceFlinger's shared
// virtual memory for the exit dialog's allocation signature (the UI
// inference side channel); when the user tries to quit, it covers the
// dialog with a transparent page, swallows the "OK" tap and starts the
// home UI — so the victim merely stops, wakelock still held.
func (w *World) Attack4InterruptQuit(dur time.Duration) error {
	// The malware arms the side-channel sniffer before anything happens.
	var overlayErr error
	covered := false
	sniffer := &surfaceflinger.DialogSniffer{
		OnDialog: func(sim.Time) {
			// A dialog just appeared: interpose the transparent page.
			_, overlayErr = w.Dev.Activities.StartActivity(intent.Intent{
				Sender:    w.Malware.UID,
				Component: PkgMalware + "/Overlay",
			}, activity.Transparent())
			covered = true
		},
	}
	sniffer.Attach(w.Dev.Flinger)

	if _, err := w.Dev.Activities.UserStartApp(PkgVictim); err != nil {
		return err
	}
	// The victim keeps the screen on during use (the common no-sleep bug
	// pattern: release only in onDestroy).
	if _, err := w.Dev.Power.Acquire(w.Victim.UID, power.ScreenBright, "victim-ui"); err != nil {
		return err
	}
	if err := w.run(10 * time.Second); err != nil {
		return err
	}

	// The user taps quit: the victim's root activity pops its exit
	// dialog. The sniffer observes the allocation and covers it.
	dialog := w.Dev.Flinger.ShowDialog(w.Victim.UID, "exit-dialog")
	if overlayErr != nil {
		return overlayErr
	}
	if !covered {
		return fmt.Errorf("scenario: dialog sniffer missed the exit dialog")
	}
	// The user clicks where "OK" sits — the tap lands on the malware's
	// transparent page instead. The malware dismisses the scene by
	// starting the home UI; the victim's dialog closes without the app
	// being destroyed.
	if err := dialog.Dismiss(); err != nil {
		return err
	}
	w.Dev.Activities.Home(w.Malware.UID)
	return w.run(dur)
}

// Attack5Brightness: the malware secretly escalates brightness from the
// background while the victim is in the foreground. normalDur measures
// the unmolested baseline first; attackDur runs with escalated
// brightness. A screen wakelock keeps the display comparable across both
// halves, as in the paper's methodology.
func (w *World) Attack5Brightness(normalDur, attackDur time.Duration) error {
	if _, err := w.Dev.Activities.UserStartApp(PkgVictim); err != nil {
		return err
	}
	if _, err := w.Dev.Power.Acquire(w.Victim.UID, power.ScreenBright, "victim-ui"); err != nil {
		return err
	}
	if err := w.run(normalDur); err != nil {
		return err
	}
	// Malware's transparent self-close settings activity applies the
	// escalated value.
	if err := w.Dev.Display.SetBrightness(w.Malware.UID, display.SourceApp, 255); err != nil {
		return err
	}
	return w.run(attackDur)
}

// Attack6WakelockScreen: the malware's background service acquires a
// screen wakelock and never releases it, so the screen never times out;
// the drained screen energy lands on the Screen entry or the foreground
// app, never on the malware.
func (w *World) Attack6WakelockScreen(dur time.Duration) error {
	// Malware runs from a service in the background; the launcher stays
	// in the foreground.
	if _, err := w.Dev.Services.Start(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgMalware + "/Daemon",
	}); err != nil {
		return err
	}
	if _, err := w.Dev.Power.Acquire(w.Malware.UID, power.ScreenBright, "daemon"); err != nil {
		return err
	}
	return w.run(dur)
}

// StealthAutoLaunch reproduces the paper's stealth delivery story from
// §V: the malware sets a flag to hide from recents, registers for
// ACTION_USER_PRESENT, and when the user unlocks the screen its receiver
// silently mounts the component-hijack attack — the malware never
// appears in the foreground at all.
func (w *World) StealthAutoLaunch(dur time.Duration) error {
	// The malware ships an unlock receiver. (The demo manifest gains it
	// lazily so older scenarios are unaffected.)
	if w.Malware.Manifest.Component("Unlock") == nil {
		w.Malware.Manifest.Components = append(w.Malware.Manifest.Components,
			manifest.Component{
				Kind: manifest.KindReceiver, Name: "Unlock", Exported: true,
				Filters: []manifest.IntentFilter{{Actions: []string{intent.ActionUserPresent}}},
			})
	}
	var attackErr error
	if err := w.Dev.Broadcasts.SetHandler(PkgMalware, "Unlock", time.Second,
		func(intent.Intent) {
			// onReceive: hijack the camera from the background.
			_, attackErr = w.Dev.Activities.StartActivity(intent.Intent{
				Sender:    w.Malware.UID,
				Component: PkgCamera + "/VideoActivity",
			})
		}); err != nil {
		return err
	}
	// The user unlocks the phone; the system broadcast wakes the malware.
	if _, err := w.Dev.UserUnlock(); err != nil {
		return err
	}
	if attackErr != nil {
		return attackErr
	}
	return w.run(dur)
}

// CombinedAttack reproduces the paper's "Multi- & Hybrid Attack"
// sketch: "malware could bind a victim's service and increase the
// brightness when the victim is running in foreground" — two vectors at
// once against the same victim session.
func (w *World) CombinedAttack(dur time.Duration) error {
	if _, err := w.Dev.Activities.UserStartApp(PkgVictim); err != nil {
		return err
	}
	// Keep the session visible for the whole window.
	if _, err := w.Dev.Power.Acquire(w.Victim.UID, power.ScreenBright, "victim-ui"); err != nil {
		return err
	}
	// Vector 1: pin the victim's service from the background.
	if _, err := w.Dev.Services.Bind(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgVictim + "/Work",
	}); err != nil {
		return err
	}
	// Vector 2: escalate brightness while the victim is foreground, so
	// the extra screen energy masquerades as the victim's session.
	if err := w.Dev.Display.SetBrightness(w.Malware.UID, display.SourceApp, 255); err != nil {
		return err
	}
	return w.run(dur)
}

// AttackChainSeries reproduces "malware could spread the attack to a
// series of victims ... leading [to] energy attack chains": the malware
// drives the victim, which (as an unintentional middleman) involves the
// Message app, which involves the Camera.
func (w *World) AttackChainSeries(stepDur time.Duration) error {
	// Malware starts the victim's activity.
	if _, err := w.Dev.Activities.UserStartApp(PkgMalware); err != nil {
		return err
	}
	if _, err := w.Dev.Activities.StartActivity(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgVictim + "/Main",
	}); err != nil {
		return err
	}
	if err := w.run(stepDur); err != nil {
		return err
	}
	// The victim unintentionally involves another app...
	if _, err := w.Dev.Activities.StartActivity(intent.Intent{
		Sender:    w.Victim.UID,
		Component: PkgMessage + "/Main",
	}); err != nil {
		return err
	}
	if err := w.run(stepDur); err != nil {
		return err
	}
	// ...which involves a third.
	if _, err := w.Dev.Activities.StartActivity(intent.Intent{
		Sender:    w.Message.UID,
		Component: PkgCamera + "/VideoActivity",
	}); err != nil {
		return err
	}
	return w.run(stepDur)
}

// MultiCollateral reproduces Figure 6: the malware binds the victim's
// service, starts its activity, and interrupts it — three simultaneous
// attacks on the same victim that must not double-charge — then the user
// starts the victim (ending activity/interrupt attacks) and the malware
// unbinds (ending the last link).
func (w *World) MultiCollateral() error {
	if _, err := w.Dev.Activities.UserStartApp(PkgMalware); err != nil {
		return err
	}
	conn, err := w.Dev.Services.Bind(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgVictim + "/Work",
	})
	if err != nil {
		return err
	}
	if err := w.run(10 * time.Second); err != nil {
		return err
	}
	if _, err := w.Dev.Activities.StartActivity(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgVictim + "/Main",
	}); err != nil {
		return err
	}
	if err := w.run(10 * time.Second); err != nil {
		return err
	}
	// Malware interrupts the victim to the background.
	w.Dev.Activities.Home(w.Malware.UID)
	if err := w.run(10 * time.Second); err != nil {
		return err
	}
	// User starts the victim: the activity-period attacks end.
	if _, err := w.Dev.Activities.UserStartApp(PkgVictim); err != nil {
		return err
	}
	if err := w.run(10 * time.Second); err != nil {
		return err
	}
	// Malware unbinds: all collateral links to the victim are revoked.
	if err := w.Dev.Services.Unbind(conn); err != nil {
		return err
	}
	return w.run(10 * time.Second)
}

// HybridChain reproduces Figure 7: A (malware) binds B's (victim's)
// service; B starts C's (Camera's) activity; C changes the screen
// brightness. The energy of B, C and the screen all superimpose onto A.
// The user then takes back control step by step.
func (w *World) HybridChain() error {
	// A binds from the background (bound services need no foreground
	// presence), so the chain's only visible surface is C's activity.
	conn, err := w.Dev.Services.Bind(intent.Intent{
		Sender:    w.Malware.UID,
		Component: PkgVictim + "/Work",
	})
	if err != nil {
		return err
	}
	if err := w.run(10 * time.Second); err != nil {
		return err
	}
	// B starts one activity belonging to C.
	if _, err := w.Dev.Activities.StartActivity(intent.Intent{
		Sender:    w.Victim.UID,
		Component: PkgCamera + "/VideoActivity",
	}); err != nil {
		return err
	}
	if err := w.run(10 * time.Second); err != nil {
		return err
	}
	// C stealthily raises the brightness (the Camera app legitimately
	// holds WRITE_SETTINGS — many camera apps adjust brightness while
	// shooting, which is what makes this chain realistic).
	if err := w.Dev.Display.SetBrightness(w.Camera.UID, display.SourceApp, 255); err != nil {
		return err
	}
	if err := w.run(10 * time.Second); err != nil {
		return err
	}
	// User sets brightness back: the screen attack ends.
	if err := w.Dev.Display.SetBrightness(app.UIDSystem, display.SourceSystemUI, display.DefaultBrightness); err != nil {
		return err
	}
	if err := w.run(5 * time.Second); err != nil {
		return err
	}
	// User starts B and C: the activity-period attacks end.
	if _, err := w.Dev.Activities.UserStartApp(PkgCamera); err != nil {
		return err
	}
	if _, err := w.Dev.Activities.UserStartApp(PkgVictim); err != nil {
		return err
	}
	if err := w.run(5 * time.Second); err != nil {
		return err
	}
	if err := w.Dev.Services.Unbind(conn); err != nil {
		return err
	}
	return w.run(5 * time.Second)
}
