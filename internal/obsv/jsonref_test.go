package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The encoders the append-based writer replaced, kept as references:
// the byte-identity tests require the same output from both, record by
// record, and the same failure on a value JSON cannot hold.

// refChromeEvent is the Chrome record as encoding/json marshalled it,
// one json.Marshal per record.
type refChromeEvent struct {
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

func refWriteChrome(w io.Writer, records []refChromeEvent) error {
	bw := bufio.NewWriter(w)
	sep := "[\n"
	for _, ev := range records {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, _ = bw.WriteString(sep)
		_, _ = bw.Write(b)
		sep = ",\n"
	}
	_, _ = bw.WriteString("\n]\n")
	return bw.Flush()
}

func refWriteChromeSpans(w io.Writer, spans []trace.Span) error {
	records := []refChromeEvent{{Name: "process_name", Ph: "M", Pid: 0, Args: nameArgs{"control-plane"}}}
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
				records = append(records, refChromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: nameArgs{s.Name}})
			}
		default:
			tid = ctlTid[s.Kind]
		}
		records = append(records, refChromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: tid,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: spanArgs{ID: s.ID.String(), Kind: s.Kind, N: s.N, Parent: s.Parent.String()},
		})
	}
	return refWriteChrome(w, records)
}

func refWriteChromeEvents(w io.Writer, pid int, events []telemetry.Event) error {
	records := []refChromeEvent{{Name: "process_name", Ph: "M", Pid: pid, Args: nameArgs{fmt.Sprintf("device-%d", pid)}}}
	for i, k := range kindLanes {
		records = append(records, refChromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1, Args: nameArgs{k.String()}})
	}
	for _, ev := range events {
		records = append(records, refChromeEvent{
			Name: ev.Name, Cat: ev.Kind.String(), Ph: "i", Pid: pid, Tid: kindLane(ev.Kind),
			Ts: float64(ev.T) / 1e3, Scope: "t", Args: refEventArgs(ev),
		})
	}
	return refWriteChrome(w, records)
}

func refEventArgs(ev telemetry.Event) any {
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

// refFinding is a finding as it was built and marshalled when it
// carried its rendered text.
type refFinding struct {
	T          sim.Time `json:"t"`
	Signal     string   `json:"signal"`
	UID        app.UID  `json:"uid"`
	Label      string   `json:"label"`
	RateMW     float64  `json:"rate_mw"`
	BaselineMW float64  `json:"baseline_mw"`
	Detail     string   `json:"detail"`
}

// refDetail is the text the watchdog rendered with fmt.Sprintf for
// each signal.
func refDetail(f Finding) string {
	switch f.Signal {
	case SignalDivergence:
		return fmt.Sprintf("%s drives %.0f mW of collateral energy while drawing %.0f mW itself",
			f.Label, f.RateMW, f.BaselineMW)
	case SignalDeviceSpike:
		return fmt.Sprintf("device draining %.0f mW against a %.0f mW baseline", f.RateMW, f.BaselineMW)
	}
	return fmt.Sprintf("%s draining %.0f mW against a %.0f mW baseline", f.Label, f.RateMW, f.BaselineMW)
}

// refWatchdogJSON is watchdog.json as the job rendered it.
func refWatchdogJSON(perDevice [][]Finding) ([]byte, error) {
	out := make([][]refFinding, len(perDevice))
	for i, fs := range perDevice {
		out[i] = []refFinding{}
		for _, f := range fs {
			out[i] = append(out[i], refFinding{
				T: f.T, Signal: f.Signal, UID: f.UID, Label: f.Label,
				RateMW: f.RateMW, BaselineMW: f.BaselineMW, Detail: refDetail(f),
			})
		}
	}
	return json.MarshalIndent(out, "", "  ")
}
