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
	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// stderr receives the run's notes; tests swap it.
var stderr io.Writer = os.Stderr

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
	checks := fs.Bool("check", true, "run the runtime invariant checker; any violation fails the serial sweep (the worker path checks passively per device)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var worldOpts scenario.WorldOptions

	// Serial sweeps get a fail-fast checker through the world funnel,
	// or none under -check=false; the parallel path builds passively
	// checked devices per fleet spec.
	worldOpts.Checks = &check.Options{FailFast: *checks, Disabled: !*checks}

	// The shared world recorder is single-goroutine; the worker path
	// builds its devices off the serial funnel, so telemetry flags only
	// make sense for the serial sweep.
	var rec *telemetry.Recorder
	if *traceOut != "" || *eventsOut != "" || *metricsOut != "" {
		if *workers != 1 {
			return fmt.Errorf("telemetry flags require -workers 1 (the parallel sweep runs one recorder per device internally)")
		}
		rec = telemetry.New(telemetry.Options{})
		worldOpts.Telemetry = rec
	}
	prevOpts := scenario.SetWorldOptions(worldOpts)
	defer scenario.SetWorldOptions(prevOpts)

	var res *experiments.Fig3Result
	var err error
	if *workers == 1 {
		res, err = experiments.Fig3WithStep(*step)
	} else {
		res, err = experiments.Fig3WithStepWorkers(*step, *workers)
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
		fmt.Println("config,percent,hours")
		for _, c := range res.Curves {
			for _, p := range c.Points {
				fmt.Printf("%s,%d,%.4f\n", c.Name, p.Percent, p.Hours)
			}
		}
	} else {
		fmt.Println(res.Render())
	}
	return nil
}
