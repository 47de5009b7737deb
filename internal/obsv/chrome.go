package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The Chrome trace-event encoder: one record type and one writer
// behind both mappers, WriteChromeSpans (a job's trace.json) and
// WriteChromeEvents (the CLIs' -trace-out). The output is a JSON array
// with one event per line, which chrome://tracing and Perfetto both
// load. It is byte-deterministic: field order is fixed by the struct
// (span args are structs whose fields sit in sorted key order, the
// order map-valued event args marshal in), floats use Go's
// shortest-exact formatting, and timestamps are virtual microseconds.

// chromeEvent is one record of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// "X" complete events carry ts + dur, "i" instant events a category
// and scope, "M" metadata events name processes and threads.
type chromeEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat,omitempty"`
	Ph    string  `json:"ph"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	Ts    float64 `json:"ts,omitempty"`
	Dur   float64 `json:"dur,omitempty"`
	Scope string  `json:"s,omitempty"`
	Args  any     `json:"args,omitempty"`
}

// spanArgs are a span record's args, nameArgs a metadata record's.
// Structs rather than maps: trace.json writes one per span, and a map
// per span was its writer's largest allocation.
type (
	spanArgs struct {
		ID     string  `json:"id"`
		Kind   string  `json:"kind"`
		N      float64 `json:"n,omitempty"`
		Parent string  `json:"parent"`
	}
	nameArgs struct {
		Name string `json:"name"`
	}
)

// writeChrome writes records as the array, one per line.
func writeChrome(w io.Writer, records []chromeEvent) error {
	bw := bufio.NewWriter(w)
	sep := "[\n"
	for _, ev := range records {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		// A write error sticks in bw and surfaces at Flush.
		_, _ = bw.WriteString(sep)
		_, _ = bw.Write(b)
		sep = ",\n"
	}
	_, _ = bw.WriteString("\n]\n")
	return bw.Flush()
}

// Thread lanes within a device process, one per phase kind so the
// lanes don't overlap (phases of one kind never nest).
const (
	laneStructural = 0
	laneMeter      = 1
	laneWatchdog   = 2
	laneWheel      = 3
)

func phaseLane(name string) int {
	switch name {
	case trace.PhaseMeterFlush:
		return laneMeter
	case trace.PhaseWatchdogWindow:
		return laneWatchdog
	case trace.PhaseKernelBatch:
		return laneWheel
	}
	return laneStructural
}

// WriteChromeSpans writes a span tree as Chrome trace events. Process
// 0 is the control plane (request/job/shard lanes); process i+1 is
// device i, with one thread lane per phase kind. Timestamps and
// durations are virtual microseconds.
func WriteChromeSpans(w io.Writer, spans []trace.Span) error {
	records := make([]chromeEvent, 0, 1+len(spans))
	records = append(records, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: nameArgs{"control-plane"},
	})
	// Control-plane thread lanes by span kind.
	ctlTid := map[string]int{trace.KindRequest: 0, trace.KindJob: 1, trace.KindShard: 2}
	named := map[int]bool{}
	for _, s := range spans {
		pid, tid := 0, 0
		switch s.Kind {
		case trace.KindDevice, trace.KindPhase:
			pid = s.Dev + 1
			if s.Kind == trace.KindPhase {
				tid = phaseLane(s.Name)
			}
			if !named[pid] {
				named[pid] = true
				records = append(records, chromeEvent{
					Name: "process_name", Ph: "M", Pid: pid,
					Args: nameArgs{s.Name},
				})
			}
		default:
			tid = ctlTid[s.Kind]
		}
		records = append(records, chromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: tid,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: spanArgs{ID: s.ID.String(), Kind: s.Kind, N: s.N, Parent: s.Parent.String()},
		})
	}
	return writeChrome(w, records)
}

// kindLanes gives each telemetry event kind its own thread lane, so
// Perfetto renders each subsystem as its own track.
var kindLanes = []telemetry.Kind{
	telemetry.KindSimEvent, telemetry.KindLifecycle, telemetry.KindPowerState,
	telemetry.KindBattery, telemetry.KindAttribution, telemetry.KindViolation,
	telemetry.KindAnomaly,
}

func kindLane(k telemetry.Kind) int {
	for i, lane := range kindLanes {
		if lane == k {
			return i + 1
		}
	}
	return len(kindLanes) + 1
}

// WriteChromeEvents writes a telemetry event stream as Chrome instant
// events. pid labels the emitting process track (the device index for
// fleets; 0 for a single device); each event kind gets a named thread
// lane.
func WriteChromeEvents(w io.Writer, pid int, events []telemetry.Event) error {
	records := make([]chromeEvent, 0, 1+len(kindLanes)+len(events))
	records = append(records, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: nameArgs{fmt.Sprintf("device-%d", pid)},
	})
	for i, k := range kindLanes {
		records = append(records, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
			Args: nameArgs{k.String()},
		})
	}
	for _, ev := range events {
		records = append(records, chromeEvent{
			Name:  ev.Name,
			Cat:   ev.Kind.String(),
			Ph:    "i",
			Pid:   pid,
			Tid:   kindLane(ev.Kind),
			Ts:    float64(ev.T) / 1e3, // sim.Time is nanoseconds
			Scope: "t",
			Args:  eventArgs(ev),
		})
	}
	return writeChrome(w, records)
}

// eventArgs names an event's generic fields by kind. They stay maps,
// one key set per kind: every key prints even when its value is zero,
// which a shared struct with omitempty fields would drop.
func eventArgs(ev telemetry.Event) any {
	switch ev.Kind {
	case telemetry.KindSimEvent:
		return map[string]any{"queue_depth": ev.V0}
	case telemetry.KindLifecycle:
		return map[string]any{"uid": int64(ev.UID), "from": ev.From, "to": ev.To}
	case telemetry.KindPowerState:
		return map[string]any{"uid": int64(ev.UID), "old": ev.V0, "new": ev.V1}
	case telemetry.KindBattery:
		return map[string]any{"drained_j": ev.V0, "percent": ev.V1}
	case telemetry.KindAttribution:
		return map[string]any{"uid": int64(ev.UID), "joules": ev.V0}
	case telemetry.KindViolation:
		return map[string]any{"detail": ev.To, "got": ev.V0, "want": ev.V1}
	case telemetry.KindAnomaly:
		return map[string]any{"uid": int64(ev.UID), "detail": ev.To, "rate_mw": ev.V0, "baseline_mw": ev.V1}
	}
	return nil
}
