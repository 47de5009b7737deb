package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Start is nanoseconds since the tracer's origin;
// spans known only by their duration (job lifecycle stages) start at
// their parent's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path pays one branch per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(name string, parent int, start time.Time, dur time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), Dur: int64(dur)})
	return id
}

// modeled is a layer cost measured by ablation rather than by a span:
// Total is its host time over the traced phase, charged as a child of
// the named parent layer.
type modeled struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Total  float64 `json:"total_ms"`
}

// ledgerRow is one layer's share of the traced end-to-end time.
type ledgerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// structural spans group layer calls but are no layer themselves: their
// self time is the part of the whole that no layer accounts for.
var structural = map[string]bool{"request": true, "fleet.run": true, "fleet.busy": true}

// ledger folds the span trees under structural roots into per-layer
// rows; other root spans (client-side views such as the POST round
// trip) are left out. A layer's self time is its spans' duration minus
// the duration of their child spans, and modeled ablation costs are
// subtracted from their parent layer the same way, so the self times
// sum to the roots' total. It returns the rows (sorted by self time),
// the roots' total in ms and the unattributed share of it in percent.
// Spans must follow their parents in the slice.
func ledger(spans []span, extra []modeled) ([]ledgerRow, float64, float64) {
	self := make([]float64, len(spans))
	in := make([]bool, len(spans))
	var rootMS float64
	for _, s := range spans {
		if s.Parent < 0 {
			in[s.ID] = structural[s.Name]
		} else {
			in[s.ID] = in[s.Parent]
		}
		if !in[s.ID] {
			continue
		}
		self[s.ID] += float64(s.Dur) / 1e6
		if s.Parent >= 0 {
			self[s.Parent] -= float64(s.Dur) / 1e6
		} else {
			rootMS += float64(s.Dur) / 1e6
		}
	}
	rows := map[string]*ledgerRow{}
	row := func(name string) *ledgerRow {
		r := rows[name]
		if r == nil {
			r = &ledgerRow{Name: name}
			rows[name] = r
		}
		return r
	}
	for _, s := range spans {
		if !in[s.ID] {
			continue
		}
		r := row(s.Name)
		r.Count++
		r.TotalMS += float64(s.Dur) / 1e6
		r.SelfMS += self[s.ID]
	}
	for _, m := range extra {
		r := row(m.Name)
		r.Count++
		r.TotalMS += m.Total
		r.SelfMS += m.Total
		row(m.Parent).SelfMS -= m.Total
	}
	out := make([]ledgerRow, 0, len(rows))
	var unattributed float64
	for _, r := range rows {
		out = append(out, *r)
		if structural[r.Name] {
			unattributed += r.SelfMS
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	pct := 0.0
	if rootMS > 0 {
		pct = 100 * unattributed / rootMS
	}
	return out, rootMS, pct
}

// writeTrace writes the spans and the ledger of a traced run as JSON.
func writeTrace(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
