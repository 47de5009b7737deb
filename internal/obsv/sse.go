package obsv

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// sseMaxMisses is how many consecutive frames a subscriber may fail to
// accept (full channel) before the broker drops it. Combined with the
// channel buffer this gives a stuck client ~two buffers of grace; after
// that it is disconnected rather than silently starved forever, so the
// broker's subscriber map cannot accumulate dead readers.
const sseMaxMisses = 64

// sseSubBuffer is each subscriber's frame buffer. Publishers never
// block: a full buffer costs the subscriber one miss.
const sseSubBuffer = 64

// SSEFrame renders one server-sent event.
func SSEFrame(event, data string) string {
	return "event: " + event + "\ndata: " + data + "\n\n"
}

// SSEBroker fans frames out to subscribers. Publishers never block:
// a send into a full subscriber buffer is a miss, and a subscriber that
// misses sseMaxMisses frames in a row is dropped (closed and removed)
// instead of being silently skipped forever — the publisher is a fleet
// worker, a job runner or the simulation loop, none of which may wait
// on a network peer, and none of which should carry dead readers
// either. Dropped() counts the casualties so telemetry can surface
// them.
type SSEBroker struct {
	mu      sync.Mutex
	subs    map[chan string]*sseSub
	closed  bool
	dropped atomic.Int64
}

type sseSub struct {
	// misses counts consecutive undelivered frames; any delivery
	// resets it.
	misses int
}

// NewSSEBroker returns an empty broker.
func NewSSEBroker() *SSEBroker {
	return &SSEBroker{subs: make(map[chan string]*sseSub)}
}

// Publish fans one frame out to every subscriber, dropping those that
// have been stuck for sseMaxMisses consecutive frames.
func (b *SSEBroker) Publish(frame string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for ch, sub := range b.subs {
		select {
		case ch <- frame:
			sub.misses = 0
		default:
			sub.misses++
			if sub.misses >= sseMaxMisses {
				close(ch)
				delete(b.subs, ch)
				b.dropped.Add(1)
			}
		}
	}
}

// Subscribe registers a new subscriber channel. On a closed broker the
// returned channel is already closed.
func (b *SSEBroker) Subscribe() chan string {
	ch := make(chan string, sseSubBuffer)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(ch)
		return ch
	}
	b.subs[ch] = &sseSub{}
	return ch
}

// Unsubscribe removes a subscriber. Safe to call after the broker
// already dropped or closed it.
func (b *SSEBroker) Unsubscribe(ch chan string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[ch]; ok {
		delete(b.subs, ch)
	}
}

// CloseAll closes every subscriber and marks the broker closed; later
// Publish calls are no-ops and later Subscribes return closed channels.
// Idempotent.
func (b *SSEBroker) CloseAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for ch := range b.subs {
		close(ch)
		delete(b.subs, ch)
	}
}

// Dropped reports how many stuck subscribers the broker has
// disconnected.
func (b *SSEBroker) Dropped() int64 { return b.dropped.Load() }

// Subscribers reports the current subscriber count.
func (b *SSEBroker) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Serve runs one SSE subscription: initial frames first (so every
// subscriber sees at least one event immediately), then the live feed
// until the client disconnects, the broker closes, or the subscriber is
// dropped for being stuck. It subscribes before calling initial, so a
// frame published while the initial frames render and flush waits in
// the subscriber's buffer: the stream may repeat a state the initial
// frames already show, but it never loses a frame.
func (b *SSEBroker) Serve(w http.ResponseWriter, r *http.Request, initial func() []string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	ch := b.Subscribe()
	defer b.Unsubscribe(ch)
	for _, f := range initial() {
		_, _ = fmt.Fprint(w, f)
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return
			}
			if _, err := fmt.Fprint(w, frame); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
