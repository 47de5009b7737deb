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
//	eandroid-sim -fleet 10000 -workers 8 -shards 8      # streaming population fleet, merged summary only
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

// stderr receives the run's notes; tests swap it.
var stderr io.Writer = os.Stderr

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
	checks := fs.Bool("check", true, "run the runtime invariant checker; any violation fails the run")
	fleetN := fs.Int("fleet", 0, "run an N-device streaming population fleet (heterogeneous cohorts) and print the merged summary")
	fleetWorkers := fs.Int("workers", 0, "with -fleet: worker count (0 = GOMAXPROCS)")
	fleetShards := fs.Int("shards", 0, "with -fleet: accumulator shard count (0 = workers)")
	fleetSeed := fs.Int64("seed", 42, "with -fleet: fleet seed (per-device seeds derive from it)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The fleet mode bypasses the world funnel entirely: the fleet
	// runner builds its own per-device configs and streams results into
	// the bounded accumulator, so a 100k-device run fits in constant
	// memory no matter what the other flags would retain.
	if *fleetN > 0 {
		return runPopulationFleet(*fleetN, *fleetWorkers, *fleetShards, *fleetSeed)
	}

	// Telemetry attaches to every serially-built experiment world, and
	// one recorder feeds every file export. All cross-cutting wiring
	// goes into one WorldOptions set, installed as the process default
	// just before the experiments run.
	var worldOpts scenario.WorldOptions
	var rec *telemetry.Recorder
	if *traceOut != "" || *eventsOut != "" || *metricsOut != "" {
		rec = telemetry.New(telemetry.Options{})
		worldOpts.Telemetry = rec
	}
	// The invariant checker rides the same world funnel; fail-fast, so a
	// conservation breach aborts the experiment instead of printing a
	// silently wrong figure.
	if *checks {
		worldOpts.Checks = &check.Options{FailFast: true}
	}

	// Flame collection attaches to every world through the construction
	// hook: each collector is a sink on its own world's meter.
	var flames []*obsv.FlameCollector
	if *flameOut != "" || *flameHTML != "" {
		worldOpts.Hook = func(dev *device.Device) {
			flames = append(flames, obsv.AttachFlame(dev))
		}
	}
	prevOpts := scenario.SetWorldOptions(worldOpts)
	defer scenario.SetWorldOptions(prevOpts)

	if err := runExperiments(list, exp, rec, *traceOut, *eventsOut, *metricsOut); err != nil {
		return err
	}
	return exportFlames(flames, *flameOut, *flameHTML, *exp)
}

// runPopulationFleet runs the default cohort mixture down the fleet's
// streaming path and prints the merged summary (plus the failure sample
// when devices failed). No per-device results are retained.
func runPopulationFleet(devices, workers, shards int, seed int64) error {
	pop := population.Default()
	spec, err := pop.FleetSpec(devices, workers, shards, seed)
	if err != nil {
		return err
	}
	fr, err := fleet.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	fmt.Println(fr.Render())
	if fr.Summary.Failed > 0 {
		return fmt.Errorf("%d of %d devices failed", fr.Summary.Failed, fr.Summary.Devices)
	}
	return nil
}

// runExperiments is the pre-obsv body of the command: list, run one or
// all experiments, export telemetry.
func runExperiments(list *bool, exp *string, rec *telemetry.Recorder, traceOut, eventsOut, metricsOut string) error {
	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, s := range experiments.All() {
			fmt.Printf("  %-6s %s\n", s.ID, s.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with -exp <id>, or -exp all")
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
	for _, s := range specs {
		r, err := s.Run()
		if err != nil {
			if *exp == "all" {
				err = fmt.Errorf("%s: %w", s.ID, err)
			}
			return err
		}
		fmt.Println(r.Render())
	}
	if err := obsv.ExportFiles(rec, traceOut, eventsOut, metricsOut); err != nil {
		return err
	}
	if note := obsv.OverwriteNote(rec, traceOut, eventsOut); note != "" {
		fmt.Fprintln(stderr, "eandroid-sim:", note)
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
