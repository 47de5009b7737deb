// Package obsv is the simulation's live observability plane, layered
// over the device meter, the telemetry recorder and the span tracer:
//
//   - Server: the jobs daemon's HTTP surface (stdlib net/http only):
//     every registered metrics source in Prometheus text exposition
//     format, health/readiness probes, net/http/pprof, and finished
//     trace summaries as JSON plus a server-sent-events stream.
//   - FlameCollector / Flame: folds the meter's attribution stream
//     into Brendan Gregg collapsed stacks ("component;app;entity"
//     weighted by joules) and a self-contained HTML icicle report.
//   - Watchdog: a rolling-window drain-anomaly detector flagging
//     per-UID drain-rate spikes and collateral-vs-direct divergence —
//     the paper's esDiagnose signal — as structured telemetry events
//     and log lines.
//   - LogHandler: a deterministic log/slog handler stamped with
//     virtual time.
//
// The split of responsibilities mirrors the rest of the repo: the
// simulation side stays single-goroutine and deterministic (collector,
// watchdog and log output are byte-identical run-to-run and across
// fleet worker counts), while the server reads only frozen snapshots and
// finished summaries and may be hit from any number of request
// goroutines.
package obsv
