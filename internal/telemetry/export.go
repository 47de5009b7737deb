package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Exporters. All three event formats are deterministic byte-for-byte for
// a given event slice: field order is fixed by structs, map-valued args
// are marshalled by encoding/json in sorted key order, and floats use
// Go's shortest-exact formatting.

// traceEvent is one record of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto and chrome://tracing.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// tid lanes: one virtual thread per event kind, so Perfetto renders each
// subsystem as its own track.
var kindLanes = []Kind{KindSimEvent, KindLifecycle, KindPowerState, KindBattery, KindAttribution, KindViolation, KindAnomaly}

// WriteTrace exports events as Chrome trace-event JSON. pid labels the
// emitting process track (use the device index for fleets; 0 is fine for
// a single device). Timestamps are virtual microseconds since boot.
func WriteTrace(w io.Writer, pid int, events []Event) error {
	tf := traceFile{DisplayTimeUnit: "ms"}
	tf.TraceEvents = make([]traceEvent, 0, len(events)+1+len(kindLanes))
	tf.TraceEvents = append(tf.TraceEvents, traceEvent{
		Name: "process_name", Phase: "M", PID: pid,
		Args: map[string]any{"name": fmt.Sprintf("device-%d", pid)},
	})
	for i, k := range kindLanes {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: i + 1,
			Args: map[string]any{"name": k.String()},
		})
	}
	for _, ev := range events {
		te := traceEvent{
			Name:  ev.Name,
			Cat:   ev.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    float64(ev.T) / 1e3, // sim.Time is nanoseconds
			PID:   pid,
			TID:   laneOf(ev.Kind),
			Args:  traceArgs(ev),
		}
		tf.TraceEvents = append(tf.TraceEvents, te)
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(tf); err != nil {
		return err
	}
	return bw.Flush()
}

func laneOf(k Kind) int {
	for i, lane := range kindLanes {
		if lane == k {
			return i + 1
		}
	}
	return len(kindLanes) + 1
}

func traceArgs(ev Event) map[string]any {
	switch ev.Kind {
	case KindSimEvent:
		return map[string]any{"queue_depth": ev.V0}
	case KindLifecycle:
		return map[string]any{"uid": int64(ev.UID), "from": ev.From, "to": ev.To}
	case KindPowerState:
		return map[string]any{"uid": int64(ev.UID), "old": ev.V0, "new": ev.V1}
	case KindBattery:
		return map[string]any{"drained_j": ev.V0, "percent": ev.V1}
	case KindAttribution:
		return map[string]any{"uid": int64(ev.UID), "joules": ev.V0}
	case KindViolation:
		return map[string]any{"detail": ev.To, "got": ev.V0, "want": ev.V1}
	case KindAnomaly:
		return map[string]any{"uid": int64(ev.UID), "detail": ev.To, "rate_mw": ev.V0, "baseline_mw": ev.V1}
	}
	return nil
}

// WriteJSONL exports events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteText exports events in the legacy "-trace" format the engine's
// stringly tracer printed: kernel events render exactly as the raw
// stdout callback did ("T+1.5s name"); other kinds carry a bracketed
// kind tag so mixed streams stay greppable.
func WriteText(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		var err error
		switch ev.Kind {
		case KindSimEvent:
			_, err = fmt.Fprintf(bw, "%v %s\n", ev.T, ev.Name)
		case KindLifecycle:
			_, err = fmt.Fprintf(bw, "%v [lifecycle] uid=%d %s %s->%s\n",
				ev.T, ev.UID, ev.Name, ev.From, ev.To)
		case KindPowerState:
			_, err = fmt.Fprintf(bw, "%v [power] uid=%d %s %s->%s\n",
				ev.T, ev.UID, ev.Name, formatFloat(ev.V0), formatFloat(ev.V1))
		case KindBattery:
			_, err = fmt.Fprintf(bw, "%v [battery] drained=%sJ at %s%%\n",
				ev.T, formatFloat(ev.V0), formatFloat(ev.V1))
		case KindAttribution:
			_, err = fmt.Fprintf(bw, "%v [attribution] uid=%d %sJ\n",
				ev.T, ev.UID, formatFloat(ev.V0))
		case KindViolation:
			_, err = fmt.Fprintf(bw, "%v [violation] %s: %s (got %s, want %s)\n",
				ev.T, ev.Name, ev.To, formatFloat(ev.V0), formatFloat(ev.V1))
		case KindAnomaly:
			_, err = fmt.Fprintf(bw, "%v [anomaly] uid=%d %s: %s (%smW vs %smW)\n",
				ev.T, ev.UID, ev.Name, ev.To, formatFloat(ev.V0), formatFloat(ev.V1))
		default:
			_, err = fmt.Fprintf(bw, "%v [%s] %s\n", ev.T, ev.Kind, ev.Name)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ExportFiles writes the recorder's retained events and metrics to the
// given paths, skipping any empty path: traceOut as Chrome trace-event
// JSON, eventsOut as JSONL, metricsOut as a plain-text metrics dump.
// This is the shared backend of the CLIs' -trace-out / -events-out /
// -metrics-out flags.
func ExportFiles(rec *Recorder, traceOut, eventsOut, metricsOut string) error {
	// write buffers each export and keeps the FIRST error from any stage
	// (emit, flush, close): a short write that only surfaces at Flush or
	// Close must not be masked by a later stage succeeding, and a Close
	// error after a failed emit must not shadow the emit error.
	write := func(path string, emit func(io.Writer) error) error {
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
	if traceOut != "" {
		if err := write(traceOut, func(w io.Writer) error {
			return WriteTrace(w, 0, rec.Events())
		}); err != nil {
			return err
		}
	}
	if eventsOut != "" {
		if err := write(eventsOut, func(w io.Writer) error {
			return WriteJSONL(w, rec.Events())
		}); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		if err := write(metricsOut, func(w io.Writer) error {
			_, err := io.WriteString(w, rec.Metrics().Snapshot().Text())
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
