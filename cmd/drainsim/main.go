// Command drainsim regenerates Figure 3: the battery depletion curves of
// the five attack/brightness configurations, with the screen forced on
// by a wakelock.
//
// Usage:
//
//	drainsim                 # summary + decile table
//	drainsim -step 10s       # finer integration step
//	drainsim -csv            # full per-percent series as CSV
//	drainsim -workers 5      # sweep the five configurations in parallel
//
// The parallel sweep runs on the fleet runner's streaming path: each
// configuration's drain curve lands in a worker-owned slice slot and
// the fleet folds everything else away as devices finish, so no
// per-device Result set is retained.
//
//	drainsim -trace-out t.json -metrics-out m.prom  # telemetry (serial only)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// stdout and stderr receive the run's output and notes; tests swap them.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "drainsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("drainsim", flag.ContinueOnError)
	step := fs.Duration("step", 30*time.Second, "integration step")
	csv := fs.Bool("csv", false, "emit the full per-percent series as CSV")
	workers := fs.Int("workers", 1, "run configurations concurrently on this many workers (0 = GOMAXPROCS)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)")
	eventsOut := fs.String("events-out", "", "write the structured event stream as JSONL")
	metricsOut := fs.String("metrics-out", "", "write the recorder's metrics as Prometheus text")
	checkOn := fs.Bool("check", true, "run the runtime invariant checker; any violation fails the sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fail-fast, so a conservation breach fails the sweep instead of
	// printing a silently wrong figure; -check=false builds unchecked
	// devices. Both sweeps build their devices under these options.
	checks := &check.Options{FailFast: *checkOn, Disabled: !*checkOn}

	// The recorder is single-goroutine, so it attaches only to the
	// serial sweep's worlds: the parallel sweep's devices run on the
	// fleet's workers.
	var rec *telemetry.Recorder
	if *traceOut != "" || *eventsOut != "" || *metricsOut != "" {
		if *workers != 1 {
			return fmt.Errorf("telemetry flags require -workers 1 (the parallel sweep runs one recorder per device internally)")
		}
		rec = telemetry.New(telemetry.Options{})
	}

	var res *experiments.Fig3Result
	var err error
	if *workers == 1 {
		// The sweep's worlds are kept until it returns, for their
		// end-of-run checks.
		var worlds []*scenario.World
		res, err = experiments.Fig3WithStep(func(cfg device.Config) (*scenario.World, error) {
			cfg.Telemetry, cfg.Checks = rec, checks
			w, err := scenario.NewWorld(cfg)
			if err == nil {
				worlds = append(worlds, w)
			}
			return w, err
		}, *step)
		if err == nil {
			err = experiments.FinishChecks(worlds)
		}
	} else {
		res, err = experiments.Fig3WithStepWorkers(*step, *workers, checks)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		if err := obsv.ExportFiles(rec, *traceOut, *eventsOut, *metricsOut); err != nil {
			return err
		}
		if note := obsv.OverwriteNote(rec, *traceOut, *eventsOut); note != "" {
			fmt.Fprintln(stderr, "drainsim:", note)
		}
	}
	if *csv {
		fmt.Fprintln(stdout, "config,percent,hours")
		for _, c := range res.Curves {
			for _, p := range c.Points {
				fmt.Fprintf(stdout, "%s,%d,%.4f\n", c.Name, p.Percent, p.Hours)
			}
		}
	} else {
		fmt.Fprintln(stdout, res.Render())
	}
	return nil
}
