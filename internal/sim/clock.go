// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher-level subsystems (activity manager, power manager, hardware
// power models, ...) are driven by a single Engine that owns a virtual
// clock and an event heap. Determinism is a hard requirement: the same
// scenario script must produce bit-identical energy ledgers on every run,
// so the kernel never consults the wall clock and draws no random
// numbers; scenario randomness comes from seeded sources outside it.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual instant, expressed as the duration elapsed since the
// simulated device booted. Using a dedicated type (rather than bare
// time.Duration) keeps virtual instants from being confused with spans.
type Time time.Duration

// Duration re-exports time.Duration for callers that only import sim.
type Duration = time.Duration

// Common constructors for readable scenario scripts.
const (
	Millisecond = Time(time.Millisecond)
	Second      = Time(time.Second)
	Minute      = Time(time.Minute)
	Hour        = Time(time.Hour)
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span between t and earlier instant u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds since boot.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Hours reports t as floating-point hours since boot.
func (t Time) Hours() float64 { return time.Duration(t).Hours() }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String formats the instant as an offset from boot, e.g. "T+1m30s".
func (t Time) String() string {
	return fmt.Sprintf("T+%s", time.Duration(t))
}

// SplitMix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014):
// one multiply-xorshift pipeline that spreads consecutive inputs across
// the full 64-bit space. Fleet device seeds, corpus script seeds and
// trace span IDs all derive from a root plus an index through it, so
// any one of them can be re-derived without running the others.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
