package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/corpus/replay"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/obsv"
	"repro/internal/scenario"
)

// deviceOut is one device's harvest in a scenario/fleet job. Workers
// write only their own index — disjoint-index writes, no locking.
type deviceOut struct {
	flame    *obsv.Flame
	findings []obsv.Finding
	stats    obsv.WindowStats
	detected bool
}

// deviceRow is summary.json's per-device line.
type deviceRow struct {
	Index      int     `json:"index"`
	Seed       int64   `json:"seed"`
	BatteryPct float64 `json:"battery_pct"`
	DrainedJ   float64 `json:"drained_j"`
	Findings   int     `json:"findings"`
	Judged     int     `json:"judged"`
	Flagged    int     `json:"flagged"`
	Detected   bool    `json:"detected"`
	Violations int     `json:"violations"`
}

// execute runs the job and renders its artifacts. Every byte written
// here is a pure function of the normalized spec — worker count,
// scheduling and wall time never leak in — which is the contract the
// content-addressed cache depends on.
func (m *Manager) execute(ctx context.Context, j *Job) (Artifacts, error) {
	switch j.Spec.Kind {
	case KindScenario, KindFleet:
		return m.runFleet(ctx, j)
	case KindCorpus:
		return m.runCorpus(ctx, j)
	default:
		return Artifacts{}, fmt.Errorf("jobs: unknown kind %q", j.Spec.Kind)
	}
}

// progressHook bridges fleet progress ticks into the job: it bumps the
// done counter (for /jobs/{id}) and publishes one SSE frame per
// finished device.
func (j *Job) progressHook() func(fleet.Progress) {
	return func(p fleet.Progress) {
		j.mu.Lock()
		if p.Done > j.done {
			j.done = p.Done
		}
		j.mu.Unlock()
		data, err := json.Marshal(p)
		if err != nil {
			return
		}
		j.events.Publish(obsv.SSEFrame("progress", string(data)))
	}
}

// runFleet executes scenario and fleet jobs: N devices through one
// corpus cell, each with a watchdog and a flame collector attached.
func (m *Manager) runFleet(ctx context.Context, j *Job) (Artifacts, error) {
	spec := j.Spec
	cell, cellIdx, err := cellByName(spec.Cell)
	if err != nil {
		return Artifacts{}, err
	}
	n := spec.Devices
	params := corpus.Params{Horizon: spec.Horizon.std()}
	outs := make([]deviceOut, n)
	rows := make([]deviceRow, n)

	fr, err := fleet.Run(ctx, fleet.Spec{
		Devices: n,
		Workers: m.opts.Limits.Workers,
		Seed:    spec.Seed,
		Config: device.Config{
			EAndroid: true,
			Policy:   accounting.BatteryStats,
			Checks:   &check.Options{},
		},
		Telemetry: true,
		Progress:  j.progressHook(),
		Trace:     j.tr.Fleet(n),
		// Streaming: per-device Results fold into the bounded
		// accumulator and are dropped; the summary rows capture the few
		// scalars the artifact needs via disjoint-index writes. This is
		// what lets the fleet device limit sit at 4096 without the
		// control plane holding 4096 ledger maps alive.
		Stream: func(r fleet.Result) {
			rows[r.Index] = deviceRow{
				Index:      r.Index,
				Seed:       r.Seed,
				BatteryPct: r.BatteryPct,
				DrainedJ:   r.DrainedJ,
				Violations: len(r.Violations),
			}
		},
		Scenario: func(i int, dev *device.Device) error {
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			wd, err := obsv.NewWatchdog(dev, obsv.WatchdogOptions{})
			if err != nil {
				return err
			}
			wd.Start()
			fc := obsv.AttachFlame(dev)
			if err := corpus.Play(w, cell, corpus.ScriptSeed(spec.Seed, cellIdx, i), params); err != nil {
				return err
			}
			o := &outs[i]
			o.findings = wd.Finish()
			o.detected = obsv.Detected(o.findings, w.Malware.UID)
			o.stats = wd.Stats()
			o.flame = fc.Fold()
			return nil
		},
	})
	if err != nil {
		return Artifacts{}, err
	}
	// Streaming failures carry only sampled message strings, not error
	// chains, so a cancelled run must be classified from the context —
	// finish() needs errors.Is(err, context.Canceled) to hold.
	if ctxErr := ctx.Err(); ctxErr != nil {
		return Artifacts{}, ctxErr
	}
	for _, f := range fr.Summary.Failures {
		return Artifacts{}, fmt.Errorf("jobs: device %d: %s", f.Index, f.Err)
	}
	artStart := time.Now() // the artifact-write lifecycle stage

	// summary.json: finish the per-device rows (watchdog fields come
	// from the scenario closure's outs) and reduce totals in index
	// order, so the artifact bytes stay scheduling-independent.
	var totalJ float64
	var totalFindings, detected int
	for i := range rows {
		o := &outs[i]
		rows[i].Findings = len(o.findings)
		rows[i].Judged = o.stats.Judged
		rows[i].Flagged = o.stats.Flagged
		rows[i].Detected = o.detected
		totalJ += rows[i].DrainedJ
		totalFindings += len(o.findings)
		if o.detected {
			detected++
		}
	}
	summary := struct {
		Spec          Spec        `json:"spec"`
		Key           string      `json:"key"`
		Devices       []deviceRow `json:"devices"`
		TotalDrainedJ float64     `json:"total_drained_j"`
		TotalFindings int         `json:"total_findings"`
		DetectedRuns  int         `json:"detected_runs"`
	}{spec, j.Key, rows, totalJ, totalFindings, detected}
	summaryJSON, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return Artifacts{}, err
	}
	arts := newArtifactSet()
	arts.keep("summary.json", summaryJSON)

	// watchdog.json: per-device findings, index order.
	findings := make([][]obsv.Finding, n)
	for i := range outs {
		findings[i] = outs[i].findings
	}
	arts.write("watchdog.json", func(w io.Writer) error { return obsv.WriteFindingsJSON(w, findings) })

	// Flame graph: merge in index order (MergeFlames is deterministic
	// in argument order). The title carries the cell and content
	// address — never the job ID, which differs between identical
	// submissions.
	flames := make([]*obsv.Flame, 0, n)
	for i := range outs {
		if outs[i].flame != nil {
			flames = append(flames, outs[i].flame)
		}
	}
	merged := obsv.MergeFlames(flames...)
	arts.write("flame.txt", merged.WriteCollapsed)
	title := fmt.Sprintf("%s %s [%s]", spec.Kind, spec.Cell, j.Key[:12])
	arts.write("flame.html", func(w io.Writer) error { return merged.WriteHTML(w, title) })
	arts.write("metrics.prom", func(w io.Writer) error { return obsv.WritePrometheus(w, fr.Metrics) })

	// Fold the per-device watchdog window counters into the manager's
	// /metrics totals (index order is irrelevant to a sum).
	var wdTotals obsv.WindowStats
	for i := range outs {
		wdTotals.Add(outs[i].stats)
	}
	m.noteWatchdog(wdTotals)

	// trace.json: the deterministic span tree as Chrome trace JSON.
	// Spans carry virtual-ns windows only and IDs derived from the
	// spec's content address, so the bytes — like every other artifact
	// — are a pure function of the normalized spec. The wall-clock
	// lifecycle stages live on the /trace feed instead.
	arts.write("trace.json", func(w io.Writer) error { return obsv.WriteChromeSpans(w, j.tr.Spans()) })
	res, err := arts.done()
	if err != nil {
		return Artifacts{}, err
	}
	j.tr.AddStage("artifact-write", time.Since(artStart))
	return res, nil
}

// scratchBufs lends each job one buffer to render its artifacts in,
// reused from job to job as corpus.Play reuses its generators.
var scratchBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// artifactSet collects a job's files. Each is rendered into one pooled
// scratch buffer and kept as a copy of exactly its length: the cache
// charges a file its len, so the array behind it must be no larger.
// The first error sticks; done reports it.
type artifactSet struct {
	buf   *bytes.Buffer
	files map[string][]byte
	err   error
}

func newArtifactSet() *artifactSet {
	return &artifactSet{buf: scratchBufs.Get().(*bytes.Buffer), files: make(map[string][]byte, 6)}
}

// write renders the file name with emit.
func (a *artifactSet) write(name string, emit func(io.Writer) error) {
	if a.err != nil {
		return
	}
	a.buf.Reset()
	if a.err = emit(a.buf); a.err == nil {
		a.keep(name, a.buf.Bytes())
	}
}

// keep stores a copy of b as the file name.
func (a *artifactSet) keep(name string, b []byte) {
	out := make([]byte, len(b))
	copy(out, b)
	a.files[name] = out
}

// done hands the scratch buffer back and returns the files.
func (a *artifactSet) done() (Artifacts, error) {
	scratchBufs.Put(a.buf)
	a.buf = nil
	if a.err != nil {
		return Artifacts{}, a.err
	}
	return Artifacts{Files: a.files}, nil
}

// runCorpus executes corpus jobs: one cell × reps through the
// statistical replay harness.
func (m *Manager) runCorpus(ctx context.Context, j *Job) (Artifacts, error) {
	spec := j.Spec
	cell, _, err := cellByName(spec.Cell)
	if err != nil {
		return Artifacts{}, err
	}
	res, err := replay.Run(ctx, replay.Options{
		RootSeed: spec.Seed,
		Reps:     spec.Reps,
		Workers:  m.opts.Limits.Workers,
		Horizon:  spec.Horizon.std(),
		Cells:    []corpus.Cell{cell},
		Progress: j.progressHook(),
	})
	if err != nil {
		// The replay reports cancelled devices as sampled failure
		// strings; recover the error chain from the context.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Artifacts{}, ctxErr
		}
		return Artifacts{}, err
	}
	cellsJSON, err := res.MarshalCells()
	if err != nil {
		return Artifacts{}, err
	}
	// Corpus jobs have no fleet handle to hang device spans off; the
	// trace is the control-plane pair (request → job) over the corpus
	// horizon.
	j.tr.SetHorizon(spec.Horizon.std())
	arts := newArtifactSet()
	arts.keep("summary.json", cellsJSON)
	arts.write("summary.txt", func(w io.Writer) error {
		_, err := io.WriteString(w, res.Render())
		return err
	})
	arts.write("trace.json", func(w io.Writer) error { return obsv.WriteChromeSpans(w, j.tr.Spans()) })
	return arts.done()
}
