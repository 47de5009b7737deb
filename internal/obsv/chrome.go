package obsv

import (
	"io"
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The Chrome trace-event encoder: one record appender behind both
// mappers, WriteChromeSpans (a job's trace.json) and WriteChromeEvents
// (the CLIs' -trace-out). The output is a JSON array with one event per
// line, which chrome://tracing and Perfetto both load. It is
// byte-deterministic, and byte-identical to what encoding/json wrote
// for the same records (the jsonw writer): fields in a fixed order,
// args keys sorted as a marshalled map's are, floats in encoding/json's
// shortest-exact form, timestamps in virtual microseconds.

// chromeEvent is one record of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// up to its args. "X" complete events carry ts + dur, "i" instant
// events a category and scope, "M" metadata events name processes and
// threads.
type chromeEvent struct {
	Name, Cat, Ph string
	Pid, Tid      int
	Ts, Dur       float64
	Scope         string
}

// chromeArray appends records to the array, one per line.
type chromeArray struct {
	jsonw
	n int // records appended
}

// open appends a record's separator and ev's fields, in the format's
// key order, leaving out cat, ts, dur and s when empty, as
// encoding/json's omitempty did. The caller appends the args, if any,
// and closes the record.
func (a *chromeArray) open(ev chromeEvent) {
	if a.n == 0 {
		a.raw("[\n")
	} else {
		a.raw(",\n")
	}
	a.n++
	a.str(`{"name":`, ev.Name)
	if ev.Cat != "" {
		a.str(`,"cat":`, ev.Cat)
	}
	a.str(`,"ph":`, ev.Ph)
	a.int(`,"pid":`, int64(ev.Pid))
	a.int(`,"tid":`, int64(ev.Tid))
	if ev.Ts != 0 {
		a.float(`,"ts":`, ev.Ts)
	}
	if ev.Dur != 0 {
		a.float(`,"dur":`, ev.Dur)
	}
	if ev.Scope != "" {
		a.str(`,"s":`, ev.Scope)
	}
}

// named appends a metadata record: ev with args {"name": name}.
func (a *chromeArray) named(ev chromeEvent, name string) {
	a.open(ev)
	a.str(`,"args":{"name":`, name)
	a.raw("}}")
}

// spanID appends pre, then id as its String() marshals: 16 hex digits,
// quoted.
func (a *chromeArray) spanID(pre string, id trace.SpanID) {
	const digits = "0123456789abcdef"
	a.b = append(append(a.b, pre...), '"')
	for shift := 60; shift >= 0; shift -= 4 {
		a.b = append(a.b, digits[id>>shift&0xf])
	}
	a.b = append(a.b, '"')
}

// flush closes the array and writes it to w.
func (a *chromeArray) flush(w io.Writer) error {
	a.raw("\n]\n")
	return a.jsonw.flush(w)
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
	case trace.PhaseMeterFlush.String():
		return laneMeter
	case trace.PhaseWatchdogWindow.String():
		return laneWatchdog
	case trace.PhaseKernelBatch.String():
		return laneWheel
	}
	return laneStructural
}

// controlLane is a control-plane span's thread lane, by span kind.
func controlLane(kind string) int {
	switch kind {
	case trace.KindJob:
		return 1
	case trace.KindShard:
		return 2
	}
	return 0
}

// WriteChromeSpans writes a span tree as Chrome trace events. Process
// 0 is the control plane (request/job/shard lanes); process i+1 is
// device i, with one thread lane per phase kind. Timestamps and
// durations are virtual microseconds.
func WriteChromeSpans(w io.Writer, spans []trace.Span) error {
	a := chromeArray{jsonw: jsonFor(w)}
	a.named(chromeEvent{Name: "process_name", Ph: "M", Pid: 0}, "control-plane")
	named := map[int]bool{}
	for i := range spans {
		s := &spans[i]
		pid, tid := 0, 0
		switch s.Kind {
		case trace.KindDevice, trace.KindPhase:
			pid = s.Dev + 1
			if s.Kind == trace.KindPhase {
				tid = phaseLane(s.Name)
			}
			if !named[pid] {
				named[pid] = true
				a.named(chromeEvent{Name: "process_name", Ph: "M", Pid: pid}, s.Name)
			}
		default:
			tid = controlLane(s.Kind)
		}
		a.open(chromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: tid,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
		})
		a.spanID(`,"args":{"id":`, s.ID)
		a.str(`,"kind":`, s.Kind)
		if s.N != 0 {
			a.float(`,"n":`, s.N)
		}
		a.spanID(`,"parent":`, s.Parent)
		a.raw("}}")
	}
	return a.flush(w)
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
	a := chromeArray{jsonw: jsonFor(w)}
	a.named(chromeEvent{Name: "process_name", Ph: "M", Pid: pid}, "device-"+strconv.Itoa(pid))
	for i, k := range kindLanes {
		a.named(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1}, k.String())
	}
	for i := range events {
		ev := &events[i]
		a.open(chromeEvent{
			Name:  ev.Name,
			Cat:   ev.Kind.String(),
			Ph:    "i",
			Pid:   pid,
			Tid:   kindLane(ev.Kind),
			Ts:    float64(ev.T) / 1e3, // sim.Time is nanoseconds
			Scope: "t",
		})
		a.eventArgs(ev)
	}
	return a.flush(w)
}

// eventArgs appends an event's args and closes its record. Each kind
// names its generic fields with its own key set, in sorted key order,
// and every key prints even when its value is zero; an unknown kind
// has no args.
func (a *chromeArray) eventArgs(ev *telemetry.Event) {
	uid := int64(ev.UID)
	switch ev.Kind {
	case telemetry.KindSimEvent:
		a.float(`,"args":{"queue_depth":`, ev.V0)
	case telemetry.KindLifecycle:
		a.str(`,"args":{"from":`, ev.From)
		a.str(`,"to":`, ev.To)
		a.int(`,"uid":`, uid)
	case telemetry.KindPowerState:
		a.float(`,"args":{"new":`, ev.V1)
		a.float(`,"old":`, ev.V0)
		a.int(`,"uid":`, uid)
	case telemetry.KindBattery:
		a.float(`,"args":{"drained_j":`, ev.V0)
		a.float(`,"percent":`, ev.V1)
	case telemetry.KindAttribution:
		a.float(`,"args":{"joules":`, ev.V0)
		a.int(`,"uid":`, uid)
	case telemetry.KindViolation:
		a.str(`,"args":{"detail":`, ev.To)
		a.float(`,"got":`, ev.V0)
		a.float(`,"want":`, ev.V1)
	case telemetry.KindAnomaly:
		a.float(`,"args":{"baseline_mw":`, ev.V1)
		a.str(`,"detail":`, ev.To)
		a.float(`,"rate_mw":`, ev.V0)
		a.int(`,"uid":`, uid)
	default:
		a.raw("}")
		return
	}
	a.raw("}}")
}
