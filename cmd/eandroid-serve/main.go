// Command eandroid-serve is the simulation-as-a-service daemon and the
// repo's only HTTP server: the observability plane (/metrics, /healthz,
// /readyz, /trace, /debug/pprof/) plus the jobs control plane (/jobs),
// with nothing to run locally — all work arrives over HTTP.
//
// Usage:
//
//	eandroid-serve -addr 127.0.0.1:8080
//	eandroid-serve -addr :8080 -runners 4 -queue 32 -cache-mb 128
//	eandroid-serve -addr :8080 -max-devices 64 -max-sim-hours 512 -max-wall 1m
//
// Submit work:
//
//	curl -s :8080/jobs -d '{"kind":"scenario","cell":"gamer/coordinated-collateral","seed":7}'
//	curl -s :8080/jobs/j1                       # status
//	curl -N :8080/jobs/j1/events                # SSE progress
//	curl -s :8080/jobs/j1/artifacts/flame.html  # artifacts once done
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/jobs"
	"repro/internal/obsv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eandroid-serve:", err)
		os.Exit(1)
	}
}

// serveStop, when non-nil, ends the serve wait as soon as it closes;
// the CLI tests use it in place of Ctrl-C.
var serveStop chan struct{}

func run(args []string) error {
	fs := flag.NewFlagSet("eandroid-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	runners := fs.Int("runners", jobs.DefaultRunners, "concurrent job executions")
	queue := fs.Int("queue", jobs.DefaultQueueDepth, "queued-job bound; beyond it submissions get 429")
	cacheMB := fs.Int64("cache-mb", jobs.DefaultCacheBytes>>20, "artifact cache budget in MiB")
	maxDevices := fs.Int("max-devices", jobs.DefaultMaxDevices, "per-job device bound")
	maxSimHours := fs.Float64("max-sim-hours", jobs.DefaultMaxSimHours, "per-job devices x horizon bound")
	maxWall := fs.Duration("max-wall", jobs.DefaultMaxWall, "per-job wall-clock deadline")
	workers := fs.Int("workers", 0, "fleet workers per job (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The daemon is nothing but its HTTP surface, and net.Listen would
	// read an empty address as "any port".
	if *addr == "" {
		return errors.New("-addr must not be empty")
	}
	m := jobs.NewManager(jobs.Options{
		Runners:    *runners,
		QueueDepth: *queue,
		CacheBytes: *cacheMB << 20,
		Limits: jobs.Limits{
			MaxDevices:  *maxDevices,
			MaxSimHours: *maxSimHours,
			MaxWall:     *maxWall,
			Workers:     *workers,
		},
	})
	srv := obsv.NewServer()
	jobs.Attach(srv, m) // the server's shutdown hooks close m
	bound, err := srv.Start(*addr)
	if err != nil {
		m.Close()
		return err
	}
	lim := m.Limits()
	fmt.Fprintf(os.Stderr, "eandroid-serve: serving http://%s (/metrics, /trace, /jobs, /debug/pprof/)\n", bound)
	fmt.Fprintf(os.Stderr, "eandroid-serve: %d runners, queue %d, cache %d MiB; per-job limits: %d devices, %.0f sim-hours, %v wall\n",
		*runners, *queue, *cacheMB, lim.MaxDevices, lim.MaxSimHours, lim.MaxWall)
	return srv.AwaitShutdown(serveStop)
}
