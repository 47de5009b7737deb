package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent mirrors one scheduled event in the reference model.
type refEvent struct {
	at   Time
	seq  uint64
	id   int
	h    Handle
	dead bool
}

// TestWheelMatchesReferenceModel drives the engine with a randomized
// schedule/cancel/run workload and checks the dispatch order against a
// sort-based reference model. Horizons and delays are chosen to cross
// slot, window and level boundaries, including far-future overflow
// events.
func TestWheelMatchesReferenceModel(t *testing.T) {
	for round := 0; round < 20; round++ {
		rng := rand.New(rand.NewSource(int64(round + 1)))
		e := NewEngine()

		var pending []*refEvent
		var fired, want []int
		nextID := 0

		schedule := func(d Duration) {
			id := nextID
			nextID++
			re := &refEvent{at: e.Now().Add(d), id: id}
			re.h = e.Schedule(re.at, "ref", func() { fired = append(fired, id) })
			re.seq = re.h.ev.seq
			pending = append(pending, re)
		}

		randomDelay := func() Duration {
			switch rng.Intn(6) {
			case 0: // same-granule / sub-slot
				return Duration(rng.Int63n(int64(20 * time.Millisecond)))
			case 1: // level 0
				return Duration(rng.Int63n(int64(4 * time.Second)))
			case 2: // level 1
				return Duration(rng.Int63n(int64(15 * time.Minute)))
			case 3: // level 2
				return Duration(rng.Int63n(int64(48 * time.Hour)))
			case 4: // level 3
				return Duration(rng.Int63n(int64(400 * 24 * time.Hour)))
			default: // overflow
				return Duration(3*365*24*time.Hour) + Duration(rng.Int63n(int64(24*time.Hour)))
			}
		}

		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				schedule(randomDelay())
			case 2: // cancel a random pending event
				if len(pending) > 0 {
					re := pending[rng.Intn(len(pending))]
					if !re.dead && re.h.Scheduled() {
						re.h.Cancel()
						re.dead = true
					}
				}
			default: // run to a random horizon
				horizon := e.Now().Add(randomDelay())
				if err := e.RunUntil(horizon); err != nil {
					t.Fatal(err)
				}
				// Reference: everything live with at <= horizon fires in
				// (at, seq) order.
				var due []*refEvent
				rest := pending[:0]
				for _, re := range pending {
					if !re.dead && re.at <= horizon {
						due = append(due, re)
					} else if !re.dead {
						rest = append(rest, re)
					}
				}
				pending = rest
				sort.Slice(due, func(i, j int) bool {
					if due[i].at != due[j].at {
						return due[i].at < due[j].at
					}
					return due[i].seq < due[j].seq
				})
				for _, re := range due {
					want = append(want, re.id)
				}
				if len(fired) != len(want) {
					t.Fatalf("round %d op %d: fired %d events, want %d (now=%v)",
						round, op, len(fired), len(want), e.Now())
				}
				for i := range want {
					if fired[i] != want[i] {
						t.Fatalf("round %d op %d: dispatch order diverged at %d: got id %d, want id %d",
							round, op, i, fired[i], want[i])
					}
				}
				if got := e.QueueLen(); got != len(pending) {
					t.Fatalf("round %d op %d: QueueLen = %d, want %d live", round, op, got, len(pending))
				}
			}
		}
	}
}
