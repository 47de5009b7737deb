package hw

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
)

// BenchmarkAccrueColumnar costs one integrated accounting second over a
// populated meter — the per-device hot loop the columnar (struct-of-
// arrays) state table exists for: CPU attribution, peripheral hold
// shares and a live WiFi tail, all walked as dense columns.
func BenchmarkAccrueColumnar(b *testing.B) {
	e := sim.NewEngine()
	bat, err := NewBattery(1e15)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMeter(e.Now, Nexus4DVFS(), bat)
	if err != nil {
		b.Fatal(err)
	}
	m.AddSink(SinkFunc(func(Interval) {}))
	m.SetScreen(true)
	for i := 0; i < 12; i++ {
		m.SetCPUUtil(app.UID(10001+i), 0.05)
	}
	if err := m.Hold(Camera, 10003); err != nil {
		b.Fatal(err)
	}
	if err := m.Hold(WiFi, 10004); err != nil {
		b.Fatal(err)
	}
	if err := m.Hold(WiFi, 10005); err != nil {
		b.Fatal(err)
	}
	if err := m.Release(WiFi, 10005); err != nil { // leaves a live tail
		b.Fatal(err)
	}
	// Warm the interval table and scratch buffers.
	if err := e.RunFor(sim.Duration(time.Second)); err != nil {
		b.Fatal(err)
	}
	m.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RunFor(sim.Duration(time.Second)); err != nil {
			b.Fatal(err)
		}
		m.Flush()
	}
}
