// Package obsv is the simulation's observability plane, layered over
// the device meter, the telemetry recorder and the span tracer:
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
//     the paper's esDiagnose signal — as structured telemetry events.
//   - One encoder per format, shared by the daemon's job artifacts and
//     the batch CLIs' files: WritePrometheus (metrics), and
//     WriteChromeSpans / WriteChromeEvents over one Chrome trace-event
//     writer; ExportFiles writes a recorder through them.
//     telemetry.WriteJSONL is the event stream's own JSON form.
//
// The split of responsibilities mirrors the rest of the repo: the
// simulation side stays single-goroutine and deterministic (collector,
// watchdog and every encoder are byte-identical run-to-run and across
// fleet worker counts), while the server reads only registries its
// sources build afresh per scrape and finished summaries, and may be
// hit from any number of request goroutines.
package obsv
