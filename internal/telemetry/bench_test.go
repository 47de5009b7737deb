package telemetry

// Per-event cost of the kernel tracer hook, in two states: no recorder
// (the engine's no-tracers fast branch) and a recorder (ring append +
// counter/gauge updates). The benchsuite -telemetry study measures the
// same two states end to end; this isolates the engine dispatch itself.

import (
	"testing"

	"repro/internal/sim"
)

func benchEngine(b *testing.B, rec *Recorder) {
	e := sim.NewEngine()
	if rec != nil {
		InstrumentEngine(e, rec)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Time(i+1), "x", func() {})
		e.Step()
	}
}

func BenchmarkStepNoTracer(b *testing.B) { benchEngine(b, nil) }
func BenchmarkStepEnabled(b *testing.B)  { benchEngine(b, New(Options{})) }
