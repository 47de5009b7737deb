package fleet

import (
	"sync"

	"repro/internal/telemetry"
)

// The streaming accumulator. Folding finished devices into a running
// Summary instead of retaining []Result is what bounds fleet memory,
// but a naive "each worker sums its own devices, merge at the end"
// breaks the byte-determinism contract: float addition is not
// associative, so different worker counts would produce different bit
// patterns. The fix is a fold tree that depends only on the fleet
// size, never on workers or scheduling:
//
//   - Device indices are partitioned into fixed blocks of blockSize.
//   - Within a block, results fold strictly in index order (a result
//     arriving early parks in a small pending map until its
//     predecessor lands).
//   - Finished blocks merge into the final Summary in block order.
//
// Each block has its own mutex, so workers finishing devices of
// different blocks fold concurrently; the locks decide only who waits,
// never the arithmetic. For fleets of at most blockSize devices the
// tree degenerates to one sequential fold — bit-for-bit the order the
// pre-streaming runner used, which is what keeps the committed goldens
// valid.
const blockSize = 1024

// pendRes parks an out-of-order result until its block predecessor
// folds. dispatched records whether the result's device consumed a
// dispatch permit (cancelled-before-dispatch devices never did).
type pendRes struct {
	res        Result
	dispatched bool
}

// accBlock is one fold block: a sequential reducer over a fixed index
// range [start, end), guarded by its own mutex.
type accBlock struct {
	mu      sync.Mutex
	next    int // next index to fold
	end     int
	pending map[int]pendRes
	sum     Summary
	metrics *telemetry.Snapshot
	merr    error
}

// folder is the fleet's streaming accumulator: blockSize-wide fold
// blocks and a permit semaphore that bounds how many results can be
// finished-but-unfolded (plus in flight) at once — the backpressure
// that keeps the pending maps O(window) instead of O(devices).
type folder struct {
	spec    *Spec
	blocks  []accBlock
	permits chan struct{} // acquire = dispatch one device; release = fold one
}

func newFolder(spec *Spec, window int) *folder {
	n := spec.Devices
	f := &folder{
		spec:    spec,
		blocks:  make([]accBlock, (n+blockSize-1)/blockSize),
		permits: make(chan struct{}, window),
	}
	for b := range f.blocks {
		f.blocks[b].next = b * blockSize
		f.blocks[b].end = min((b+1)*blockSize, n)
	}
	return f
}

// acquire takes one dispatch permit, or returns false if ctx-style
// abort fired first (the caller passes its cancellation channel).
func (f *folder) acquire(cancel <-chan struct{}) bool {
	select {
	case f.permits <- struct{}{}:
		return true
	case <-cancel:
		return false
	}
}

// unacquire returns a permit taken by acquire for a device that was
// never handed to a worker.
func (f *folder) unacquire() { <-f.permits }

// complete feeds one finished device into the fold tree. It folds the
// result immediately when it is the block's next index — cascading
// through any parked successors — and parks it otherwise. Permits are
// released one per folded dispatched result, which is what unblocks
// the dispatcher.
func (f *folder) complete(i int, res Result, dispatched bool) {
	blk := &f.blocks[i/blockSize]
	blk.mu.Lock()
	if i != blk.next {
		if blk.pending == nil {
			blk.pending = make(map[int]pendRes)
		}
		blk.pending[i] = pendRes{res: res, dispatched: dispatched}
		blk.mu.Unlock()
		return
	}
	released := 0
	cur := pendRes{res: res, dispatched: dispatched}
	for {
		blk.fold(f.spec, &cur.res)
		if cur.dispatched {
			released++
		}
		blk.next++
		if blk.next >= blk.end {
			break
		}
		nxt, ok := blk.pending[blk.next]
		if !ok {
			break
		}
		delete(blk.pending, blk.next)
		cur = nxt
	}
	blk.mu.Unlock()
	// Every released permit matches a dispatched device whose acquire
	// happened before its fold, so the receives cannot block.
	for ; released > 0; released-- {
		<-f.permits
	}
}

// fold reduces one result into the block's partial summary (and, when
// telemetry is on, its pairwise-merged snapshot — MergeSnapshots is a
// left fold, so incremental pairwise merging is bit-identical to one
// merge over every snapshot in index order).
func (blk *accBlock) fold(spec *Spec, res *Result) {
	blk.sum.fold(res)
	if spec.Telemetry && res.Metrics != nil && blk.merr == nil {
		merged, err := telemetry.MergeSnapshots([]*telemetry.Snapshot{blk.metrics, res.Metrics})
		if err != nil {
			blk.merr = err
			return
		}
		blk.metrics = merged
	}
}

// finalize merges the per-block partials in block order and returns
// the fleet summary plus the merged telemetry snapshot. Called after
// every device has completed; no locking needed.
func (f *folder) finalize() (Summary, *telemetry.Snapshot, error) {
	var sum Summary
	var snaps []*telemetry.Snapshot
	for b := range f.blocks {
		blk := &f.blocks[b]
		if blk.merr != nil {
			return Summary{}, nil, blk.merr
		}
		sum.merge(&blk.sum)
		if f.spec.Telemetry {
			snaps = append(snaps, blk.metrics) // nil for all-failed blocks
		}
	}
	sum.backfillLabels()
	var metrics *telemetry.Snapshot
	if f.spec.Telemetry {
		m, err := telemetry.MergeSnapshots(snaps)
		if err != nil {
			return Summary{}, nil, err
		}
		metrics = m
	}
	return sum, metrics, nil
}
