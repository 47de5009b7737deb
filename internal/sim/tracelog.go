package sim

// TraceRecord is one kernel event firing captured by the engine's
// inline trace log: the virtual time, the event name, the queue depth
// after the pop, and the record's position in the owning recorder's
// global emission sequence (used to interleave kernel firings with
// telemetry records of other kinds when exporting).
type TraceRecord struct {
	T     Time
	Name  string
	Seq   uint64
	Depth int32
}

// TraceLog is a fixed-capacity ring of kernel event firings plus the
// scheduler gauges that ride along (queue depth after the last pop and
// its high-water mark). The engine fills it inline from dispatch — a
// handful of plain stores on a hot cache line instead of an indirect
// callback into the telemetry layer — which is what keeps the
// telemetry enabled-overhead gate honest now that the dispatch loop
// itself is cheap. A TraceLog is single-goroutine, like the engine
// that fills it.
//
// Buf may be nil (counting-only mode: Total and the depth gauges stay
// live, no events are retained). Seq is the shared emission sequence:
// the owning telemetry recorder bumps it for every non-kernel record
// too, so merging the two rings by Seq reproduces the exact global
// recording order.
type TraceLog struct {
	Buf      []TraceRecord
	W        int    // next ring slot to write; wraps at len(Buf)
	Total    uint64 // kernel events ever logged
	Seq      uint64 // shared emission sequence (see doc)
	Depth    int32  // queue depth after the most recent pop
	MaxDepth int32
}

// Log appends one kernel event firing. Small and branch-light on
// purpose: the engine calls it once per dispatched event, and it must
// inline there.
func (tl *TraceLog) Log(t Time, name string, depth int) {
	tl.Total++
	tl.Seq++
	d := int32(depth)
	tl.Depth = d
	if d > tl.MaxDepth {
		tl.MaxDepth = d
	}
	if len(tl.Buf) == 0 {
		return
	}
	rec := &tl.Buf[tl.W]
	rec.T = t
	rec.Name = name
	rec.Seq = tl.Seq
	rec.Depth = d
	tl.W++
	if tl.W == len(tl.Buf) {
		tl.W = 0
	}
}

// Records returns the retained firings, oldest first. The slice is a
// copy.
func (tl *TraceLog) Records() []TraceRecord {
	if len(tl.Buf) == 0 || tl.Total == 0 {
		return nil
	}
	if tl.Total <= uint64(len(tl.Buf)) {
		out := make([]TraceRecord, tl.Total)
		copy(out, tl.Buf[:tl.Total])
		return out
	}
	out := make([]TraceRecord, 0, len(tl.Buf))
	out = append(out, tl.Buf[tl.W:]...) // tl.W is the oldest slot once wrapped
	out = append(out, tl.Buf[:tl.W]...)
	return out
}

// SetTraceLog installs (or, with nil, removes) the engine's inline
// trace log, which dispatch fills with plain stores for every fired
// event.
func (e *Engine) SetTraceLog(tl *TraceLog) { e.tlog = tl }
