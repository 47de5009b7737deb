package sim

import "math/bits"

// This file implements the engine's hierarchical timing wheel — the
// replacement for the former container/heap event queue. Most sim
// events are short-horizon timers (meter flush ticks, screen timeouts,
// WiFi tails, ticker re-arms), so schedule and cancel are O(1) array
// ops instead of O(log n) sift operations, and cancel reclaims the
// event's slot immediately instead of leaving a tombstone to be popped
// later.
//
// Layout. Virtual time is bucketed into granules of 2^granuleBits ns
// (~16.8 ms). Four levels of 256 slots each cover spans of ~4.3 s,
// ~18.3 min, ~3.3 days and ~2.3 years; anything further out sits in an
// unordered overflow list that is re-dealt into the wheel when the
// cursor finally gets there. Placement is window-aligned, Linux-timer
// style: an event goes to the lowest level L whose level-(L+1) granule
// prefix matches the cursor's, i.e. level 0 holds only events inside
// the cursor's current level-1 window, level 1 only events inside the
// current level-2 window, and so on. Aligned windows make every slot
// single-granule (no same-slot collisions between a near and a
// far-future event), which is what keeps the find-next-event scan a
// pure bitmap walk.
//
// Determinism. Events of the cursor's current granule live in `batch`,
// sorted by (at, seq) — the exact total order the heap used to give.
// Refill moves one slot's events into the batch and insertion-sorts
// them; an event scheduled mid-dispatch into the current granule is
// binary-inserted into the undispatched tail. Dispatch order is
// therefore byte-for-byte identical to the heap's, which is what keeps
// every determinism golden (fleet summary, flame, corpus cells) intact.
// See DESIGN.md, "Timing-wheel determinism".

const (
	// granuleBits trades dispatch-order resolution the wheel does NOT
	// need (the batch re-sorts by exact (at, seq)) for placement reach:
	// at 2^24 ns the level-0 window spans ~4.3 s, so the workhorse
	// timers — 1 Hz meter flushes, detector samples, ticker re-arms —
	// file directly into a level-0 slot and never pay a cascade.
	granuleBits = 24 // 2^24 ns ≈ 16.8 ms per granule
	slotBits    = 8
	wheelSlots  = 1 << slotBits // 256
	slotMask    = wheelSlots - 1
	wheelLevels = 4

	// Event location sentinels for Event.slot; non-negative values
	// encode level<<slotBits | slotIndex.
	locFree     = -1 // not queued (free, fired, or cancelled)
	locBatch    = -2 // in the current-granule dispatch batch
	locOverflow = -3 // in the overflow list (beyond the level-3 window)
)

// granuleOf buckets a timestamp. Time is non-negative by construction
// (the clock starts at 0 and only moves forward).
func granuleOf(t Time) uint64 { return uint64(t) >> granuleBits }

// wheel is the event store. It is pool-recyclable: a fleet worker
// running devices sequentially hands the finished device's wheel back
// to the shared EventPool (Engine.Recycle) so the next device starts
// with warm slot arrays instead of growing fresh ones.
type wheel struct {
	// cur is the granule of the batch, i.e. the search floor. It lags
	// granuleOf(now) after a horizon jump over empty time; placement
	// and scanning stay correct with a stale cursor, just one cascade
	// less eager.
	cur uint64
	// live counts scheduled, not-yet-fired, not-cancelled events;
	// QueueLen reports it.
	live int

	// batch holds the current granule's events sorted by (at, seq);
	// entries before batchIdx already fired. Cancelled batch entries
	// stay in place (marked) and are skipped and reclaimed at pop.
	batch    []*Event
	batchIdx int

	slots    [wheelLevels][wheelSlots][]*Event
	occ      [wheelLevels][wheelSlots / 64]uint64
	overflow []*Event
}

// slotSeedCap is the initial per-slot arena capacity. All 1024 slot
// arenas are carved out of one backing array at construction, so
// schedule/cancel is zero-alloc from the first event — without it, a
// ticker walking the wheel would pay one slice-growth allocation per
// previously untouched slot. A slot that ever exceeds the seed capacity
// grows its own array and keeps it (arenas persist across pool reuse).
const slotSeedCap = 4

func newWheel() *wheel {
	w := &wheel{}
	backing := make([]*Event, wheelLevels*wheelSlots*slotSeedCap)
	for l := 0; l < wheelLevels; l++ {
		for s := 0; s < wheelSlots; s++ {
			i := (l*wheelSlots + s) * slotSeedCap
			w.slots[l][s] = backing[i : i : i+slotSeedCap]
		}
	}
	w.batch = make([]*Event, 0, 16)
	return w
}

// place files ev into the batch, a wheel slot, or the overflow list.
// The caller has already initialized at/seq/name/fn.
//
// The batch takes every event at or before the cursor's granule, not
// just the cursor's own: refill probes ahead of now to find the next
// event (leaving the cursor at that event's granule), so a later
// Schedule may legally target an earlier granule. Filing it relative
// to the advanced cursor would drop it in a slot behind the scan
// position — silently delaying it a whole wheel revolution — whereas
// the sorted batch dispatches it in exact (at, seq) order.
func (w *wheel) place(ev *Event) {
	g := granuleOf(ev.at)
	if g <= w.cur {
		w.insertBatch(ev)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		shift := uint((l + 1) * slotBits)
		if g>>shift == w.cur>>shift {
			w.pushSlot(l, int((g>>(uint(l)*slotBits))&slotMask), ev)
			return
		}
	}
	ev.slot, ev.pos = locOverflow, int32(len(w.overflow))
	w.overflow = append(w.overflow, ev)
}

// insertBatch binary-inserts ev into the undispatched tail of the
// batch, keeping it sorted by (at, seq). This is the mid-dispatch
// same-granule path (self-rescheduling sub-millisecond timers); the
// tail is almost always empty or length one.
func (w *wheel) insertBatch(ev *Event) {
	ev.slot, ev.pos = locBatch, -1
	b := w.batch
	lo, hi := w.batchIdx, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].at < ev.at || (b[mid].at == ev.at && b[mid].seq < ev.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, nil)
	copy(b[lo+1:], b[lo:])
	b[lo] = ev
	w.batch = b
}

func (w *wheel) pushSlot(l, idx int, ev *Event) {
	s := &w.slots[l][idx]
	ev.slot, ev.pos = int32(l<<slotBits|idx), int32(len(*s))
	*s = append(*s, ev)
	w.occ[l][idx>>6] |= 1 << uint(idx&63)
}

// remove unlinks a wheel- or overflow-resident event in O(1) by
// swap-delete. Batch-resident and unqueued events return false (the
// batch keeps dispatch indices stable; cancellation marks those
// instead).
func (w *wheel) remove(ev *Event) bool {
	switch ev.slot {
	case locFree, locBatch:
		return false
	case locOverflow:
		last := len(w.overflow) - 1
		moved := w.overflow[last]
		w.overflow[ev.pos] = moved
		moved.pos = ev.pos
		w.overflow[last] = nil
		w.overflow = w.overflow[:last]
	default:
		l, idx := int(ev.slot)>>slotBits, int(ev.slot)&slotMask
		s := &w.slots[l][idx]
		last := len(*s) - 1
		moved := (*s)[last]
		(*s)[ev.pos] = moved
		moved.pos = ev.pos
		(*s)[last] = nil
		*s = (*s)[:last]
		if last == 0 {
			w.occ[l][idx>>6] &^= 1 << uint(idx&63)
		}
	}
	ev.slot, ev.pos = locFree, -1
	return true
}

// pop returns the next live event in (at, seq) order, or nil when the
// wheel is empty. Cancelled batch entries encountered on the way are
// reclaimed into p.
func (w *wheel) pop(p *EventPool) *Event {
	return w.popUntil(maxTime, p)
}

const maxTime = Time(1<<63 - 1)

// popUntil is pop with an inclusive horizon: an event past the horizon
// stays queued and nil is returned. Fusing the horizon check into the
// pop saves the run loop a separate peek scan per event — the refill
// work a bounded scan does before discovering the next event is beyond
// the horizon is kept (the event just sits in the batch), so nothing is
// scanned twice.
func (w *wheel) popUntil(horizon Time, p *EventPool) *Event {
	for {
		for w.batchIdx < len(w.batch) {
			ev := w.batch[w.batchIdx]
			if ev.canceled {
				w.batchIdx++
				ev.slot = locFree
				p.put(ev) // live was decremented at Cancel time
				continue
			}
			if ev.at > horizon {
				return nil
			}
			w.batchIdx++
			ev.slot = locFree
			w.live--
			return ev
		}
		w.batch = w.batch[:0]
		w.batchIdx = 0
		if !w.refillOnce() {
			return nil
		}
	}
}

// refillOnce makes one unit of progress toward filling the batch:
// drain the next non-empty level-0 slot into the batch, cascade one
// higher-level slot down, or re-deal the overflow list. It returns
// false only when no events remain anywhere. Callers loop, re-checking
// the batch between steps (a cascade may land events directly in it).
func (w *wheel) refillOnce() bool {
	// Level 0: the next non-empty slot inside the current level-1
	// window becomes the new batch wholesale (every event in a level-0
	// slot shares one granule, by window alignment).
	if s, ok := w.scan(0, int(w.cur&slotMask)+1); ok {
		w.cur = w.cur&^uint64(slotMask) | uint64(s)
		// Swap arenas instead of copying: the empty batch becomes the
		// slot's next arena and the drained slot becomes the batch.
		// Stale pointers past the arenas' lengths are not nil-ed —
		// every event outlives the run inside the pool anyway, and the
		// write barriers were measurable at fleet scale.
		sl := w.slots[0][s]
		w.slots[0][s] = w.batch[:0]
		w.batch = sl
		for _, ev := range sl {
			ev.slot = locBatch
		}
		w.occ[0][s>>6] &^= 1 << uint(s&63)
		w.sortBatch()
		return true
	}
	// Levels 1..3: jump the cursor to the start of the next occupied
	// window and re-deal that slot's events down a level (or into the
	// batch, for the window's first granule).
	for l := 1; l < wheelLevels; l++ {
		cl := w.cur >> (uint(l) * slotBits)
		if s, ok := w.scan(l, int(cl&slotMask)+1); ok {
			w.cur = (cl&^uint64(slotMask) | uint64(s)) << (uint(l) * slotBits)
			w.cascade(l, s)
			return true
		}
	}
	if len(w.overflow) > 0 {
		// Everything within the level-3 window is drained; jump to the
		// earliest overflow event and re-deal the whole list. Events
		// still beyond the (new) window simply return to overflow.
		min := w.overflow[0].at
		for _, ev := range w.overflow[1:] {
			if ev.at < min {
				min = ev.at
			}
		}
		w.cur = granuleOf(min)
		list := w.overflow
		w.overflow = nil
		for i, ev := range list {
			list[i] = nil
			w.place(ev)
		}
		if w.overflow == nil {
			w.overflow = list[:0] // keep the arena when nothing bounced back
		}
		return true
	}
	return false
}

// cascade drains slot (l, s) and re-places its events under the
// (already advanced) cursor; window alignment guarantees they all land
// at levels below l or in the batch, so progress is strictly downward.
func (w *wheel) cascade(l, s int) {
	sl := w.slots[l][s]
	w.slots[l][s] = sl[:0]
	w.occ[l][s>>6] &^= 1 << uint(s&63)
	for _, ev := range sl {
		w.place(ev)
	}
}

// scan returns the first occupied slot index >= from at level l.
func (w *wheel) scan(l, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	word := from >> 6
	b := w.occ[l][word] &^ (1<<uint(from&63) - 1)
	for {
		if b != 0 {
			return word<<6 + bits.TrailingZeros64(b), true
		}
		word++
		if word >= wheelSlots/64 {
			return 0, false
		}
		b = w.occ[l][word]
	}
}

// sortBatch orders the freshly drained batch by (at, seq). Batches are
// tiny (usually one event), so insertion sort beats the generic sorts
// and allocates nothing.
func (w *wheel) sortBatch() {
	b := w.batch
	for i := 1; i < len(b); i++ {
		ev := b[i]
		j := i - 1
		for j >= 0 && (b[j].at > ev.at || (b[j].at == ev.at && b[j].seq > ev.seq)) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = ev
	}
}

// releaseAll returns every resident event to p and resets the wheel to
// empty, keeping slot/batch/overflow arenas for reuse.
func (w *wheel) releaseAll(p *EventPool) {
	for i := w.batchIdx; i < len(w.batch); i++ {
		ev := w.batch[i]
		w.batch[i] = nil
		ev.slot = locFree
		p.put(ev)
	}
	w.batch = w.batch[:0]
	w.batchIdx = 0
	for l := 0; l < wheelLevels; l++ {
		for word, b := range w.occ[l] {
			for b != 0 {
				s := word<<6 + bits.TrailingZeros64(b)
				b &^= 1 << uint(s&63)
				sl := w.slots[l][s]
				for i, ev := range sl {
					sl[i] = nil
					ev.slot = locFree
					p.put(ev)
				}
				w.slots[l][s] = sl[:0]
			}
			w.occ[l][word] = 0
		}
	}
	for i, ev := range w.overflow {
		w.overflow[i] = nil
		ev.slot = locFree
		p.put(ev)
	}
	w.overflow = w.overflow[:0]
	w.cur = 0
	w.live = 0
}
