// Command eandroid-sim runs the paper's scenarios and prints the Android
// and E-Android battery views side by side.
//
// Usage:
//
//	eandroid-sim -list
//	eandroid-sim -exp fig9a
//	eandroid-sim -exp all
//	eandroid-sim -exp fig9a -trace-out trace.json       # open in Perfetto
//	eandroid-sim -exp fig9a -events-out events.jsonl -metrics-out metrics.prom
//	eandroid-sim -exp fig9a -events-out /dev/stdout     # event stream on the terminal
//	eandroid-sim -exp fig9a -flame-out flame.txt -flame-html flame.html
//	eandroid-sim -fleet 10000 -workers 8                # streaming population fleet, merged summary only
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fleet/population"
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
		fmt.Fprintln(os.Stderr, "eandroid-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eandroid-sim", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available experiments")
	exp := fs.String("exp", "", "experiment id to run (or 'all')")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)")
	eventsOut := fs.String("events-out", "", "write the structured event stream as JSONL")
	metricsOut := fs.String("metrics-out", "", "write the recorder's metrics as Prometheus text")
	flameOut := fs.String("flame-out", "", "write the energy flame graph as collapsed stacks (Brendan Gregg format)")
	flameHTML := fs.String("flame-html", "", "write the energy flame graph as a self-contained HTML report")
	checkOn := fs.Bool("check", true, "run the runtime invariant checker; any violation fails the run")
	fleetN := fs.Int("fleet", 0, "run an N-device streaming population fleet (heterogeneous cohorts) and print the merged summary")
	fleetWorkers := fs.Int("workers", 0, "with -fleet: worker count (0 = GOMAXPROCS)")
	fleetSeed := fs.Int64("seed", 42, "with -fleet: fleet seed (per-device seeds derive from it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	listing := *list || *exp == ""
	if err := rejectIgnoredFlags(fs, *fleetN > 0, listing); err != nil {
		return err
	}

	// The fleet mode builds no experiment world: the fleet runner builds
	// its own per-device configs and streams results into the bounded
	// accumulator, so a 100k-device run fits in constant memory.
	if *fleetN > 0 {
		return runPopulationFleet(*fleetN, *fleetWorkers, *fleetSeed)
	}
	if listing {
		fmt.Fprintln(stdout, "available experiments:")
		for _, s := range experiments.All() {
			fmt.Fprintf(stdout, "  %-6s %s\n", s.ID, s.Title)
		}
		if !*list {
			fmt.Fprintln(stdout, "\nrun one with -exp <id>, or -exp all")
		}
		return nil
	}
	specs := experiments.All()
	if *exp != "all" {
		spec, err := experiments.ByID(*exp)
		if err != nil {
			return err
		}
		specs = []experiments.Spec{spec}
	}

	// Every experiment world gets the same recorder, which feeds every
	// file export, and a fail-fast checker, so a conservation breach
	// aborts the experiment instead of printing a silently wrong figure
	// (-check=false builds unchecked worlds); an experiment's worlds are
	// kept until it returns, for their end-of-run checks. A flame
	// collector is a sink on its own world's meter, attached before the
	// cast is installed.
	var rec *telemetry.Recorder
	if *traceOut != "" || *eventsOut != "" || *metricsOut != "" {
		rec = telemetry.New(telemetry.Options{})
	}
	checks := &check.Options{FailFast: *checkOn, Disabled: !*checkOn}
	flame := *flameOut != "" || *flameHTML != ""
	var flames []*obsv.FlameCollector
	var worlds []*scenario.World
	newWorld := func(cfg device.Config) (*scenario.World, error) {
		cfg.Telemetry, cfg.Checks = rec, checks
		dev, err := device.New(cfg)
		if err != nil {
			return nil, err
		}
		if flame {
			flames = append(flames, obsv.AttachFlame(dev))
		}
		w, err := scenario.Populate(dev)
		if err == nil {
			worlds = append(worlds, w)
		}
		return w, err
	}

	for _, s := range specs {
		r, err := s.Run(newWorld)
		if err == nil {
			err = experiments.FinishChecks(worlds)
		}
		worlds = nil
		if err != nil {
			if *exp == "all" {
				err = fmt.Errorf("%s: %w", s.ID, err)
			}
			return err
		}
		fmt.Fprintln(stdout, r.Render())
	}
	if err := obsv.ExportFiles(rec, *traceOut, *eventsOut, *metricsOut); err != nil {
		return err
	}
	if note := obsv.OverwriteNote(rec, *traceOut, *eventsOut); note != "" {
		fmt.Fprintln(stderr, "eandroid-sim:", note)
	}
	return exportFlames(flames, *flameOut, *flameHTML, *exp)
}

// outputFlags name the files an experiment run writes.
var outputFlags = map[string]bool{
	"trace-out": true, "events-out": true, "metrics-out": true, "flame-out": true, "flame-html": true,
}

// rejectIgnoredFlags fails on an explicitly set flag that the selected
// mode would ignore: the fleet mode runs no experiment, the list runs
// none either (-list wins over an -exp id), and only the fleet mode has
// workers and a seed.
func rejectIgnoredFlags(fs *flag.FlagSet, fleetMode, listing bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		out := outputFlags[f.Name]
		switch {
		case err != nil:
		case fleetMode && (out || f.Name == "exp" || f.Name == "list" || f.Name == "check"):
			err = fmt.Errorf("-%s does not apply to -fleet", f.Name)
		case !fleetMode && listing && f.Name == "exp" && f.Value.String() != "":
			err = fmt.Errorf("-exp does not apply to -list")
		case !fleetMode && listing && (out || f.Name == "check"):
			err = fmt.Errorf("-%s needs an experiment to run (-exp)", f.Name)
		case !fleetMode && (f.Name == "workers" || f.Name == "seed"):
			err = fmt.Errorf("-%s applies only to -fleet", f.Name)
		}
	})
	return err
}

// runPopulationFleet runs the default cohort mixture down the fleet's
// streaming path and prints the merged summary (plus the failure sample
// when devices failed). No per-device results are retained.
func runPopulationFleet(devices, workers int, seed int64) error {
	pop := population.Default()
	spec, err := pop.FleetSpec(devices, workers, 0, seed)
	if err != nil {
		return err
	}
	fr, err := fleet.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, fr.Render())
	if fr.Summary.Failed > 0 {
		return fmt.Errorf("%d of %d devices failed", fr.Summary.Failed, fr.Summary.Devices)
	}
	return nil
}

// exportFlames folds every world's flame, merges them and writes the
// requested renderings.
func exportFlames(cs []*obsv.FlameCollector, outTxt, outHTML, title string) error {
	if outTxt == "" && outHTML == "" {
		return nil
	}
	folded := make([]*obsv.Flame, len(cs))
	for i, c := range cs {
		folded[i] = c.Fold()
	}
	merged := obsv.MergeFlames(folded...)
	if outTxt != "" {
		f, err := os.Create(outTxt)
		if err != nil {
			return err
		}
		if err := merged.WriteCollapsed(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if outHTML != "" {
		f, err := os.Create(outHTML)
		if err != nil {
			return err
		}
		if err := merged.WriteHTML(f, "eandroid-sim "+title); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
