package core_test

import (
	"repro/internal/app"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/intent"
	"repro/internal/manifest"
)

// rawLedger is the reference the collateral bounds are checked against:
// a meter sink that sums every app's own hardware energy and the screen
// energy, interval by interval, independently of the monitor under test.
type rawLedger struct {
	appJ    map[app.UID]float64
	screenJ float64
}

// attachRawLedger adds a rawLedger sink to dev's meter. Attach it before
// the scenario runs, so it sees every interval the monitor charges from.
func attachRawLedger(dev *device.Device) *rawLedger {
	l := &rawLedger{appJ: make(map[app.UID]float64)}
	dev.Meter.AddSink(hw.SinkFunc(func(iv hw.Interval) {
		iv.EachApp(func(uid app.UID, row *hw.UsageRow) {
			l.appJ[uid] += row.Total()
		})
		l.screenJ += iv.ScreenJ
	}))
	return l
}

// manifestBuilderForShare declares an app handling the SEND action, used
// by the resolver-attribution test.
func manifestBuilderForShare(pkg, label string) *manifest.Manifest {
	return manifest.NewBuilder(pkg, label).
		Activity("Share", true, manifest.IntentFilter{
			Actions:    []string{intent.ActionSend},
			Categories: []string{intent.CategoryDefault},
		}).
		MustBuild()
}

// intentForShare builds the implicit SEND intent the test dispatches.
func intentForShare(sender app.UID) intent.Intent {
	return intent.Intent{
		Sender:     sender,
		Action:     intent.ActionSend,
		Categories: []string{intent.CategoryDefault},
	}
}

// intentExplicit builds an explicit intent for tests.
func intentExplicit(sender app.UID, component string) intent.Intent {
	return intent.Intent{Sender: sender, Component: component}
}
