package obsv

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/telemetry"
)

// ExportFiles writes a recorder's retained events and metrics to the
// given paths, skipping any empty path, with the same encoders behind
// a job's artifacts: traceOut as Chrome trace events
// (WriteChromeEvents), eventsOut as JSONL (telemetry.WriteJSONL),
// metricsOut as Prometheus text (WritePrometheus). It is the shared
// backend of the CLIs' -trace-out / -events-out / -metrics-out flags.
func ExportFiles(rec *telemetry.Recorder, traceOut, eventsOut, metricsOut string) error {
	outs := []struct {
		path string
		emit func(io.Writer) error
	}{
		{traceOut, func(w io.Writer) error { return WriteChromeEvents(w, 0, rec.Events()) }},
		{eventsOut, func(w io.Writer) error { return telemetry.WriteJSONL(w, rec.Events()) }},
		{metricsOut, func(w io.Writer) error { return WritePrometheus(w, rec.Metrics()) }},
	}
	for _, o := range outs {
		if o.path == "" {
			continue
		}
		if err := writeFile(o.path, o.emit); err != nil {
			return err
		}
	}
	return nil
}

// OverwriteNote is the line a CLI prints when an event export
// (traceOut or eventsOut) is short of what rec recorded: the events
// kept, the events recorded and how many the rings overwrote. It is ""
// when neither export was asked for or nothing was overwritten; the
// exported bytes are the same either way.
func OverwriteNote(rec *telemetry.Recorder, traceOut, eventsOut string) string {
	dropped := rec.Dropped()
	if (traceOut == "" && eventsOut == "") || dropped == 0 {
		return ""
	}
	total := rec.Total()
	return fmt.Sprintf("event export keeps %d of %d recorded events; the rings overwrote the oldest %d",
		total-dropped, total, dropped)
}

// writeFile buffers one export and keeps the FIRST error from any
// stage (emit, flush, close): a short write that only surfaces at
// Flush or Close must not be masked by a later stage succeeding, and a
// Close error after a failed emit must not shadow the emit error.
func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = emit(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
