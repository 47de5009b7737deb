package sim

import (
	"errors"
	"testing"
)

func TestFailSurfacesFromRunInFlight(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	fired := false
	e.Schedule(1*Second, "fail", func() { e.Fail(boom) })
	e.Schedule(2*Second, "later", func() { fired = true })
	if err := e.RunUntil(10 * Second); !errors.Is(err, boom) {
		t.Fatalf("RunUntil = %v, want %v", err, boom)
	}
	if fired {
		t.Fatal("event after the failure instant still fired")
	}
	if e.Now() != 1*Second {
		t.Fatalf("clock = %v, want the failure instant", e.Now())
	}
	// The failure surfaced once; the engine is usable again.
	if err := e.RunUntil(10 * Second); err != nil {
		t.Fatalf("second run = %v, want nil", err)
	}
	if !fired {
		t.Fatal("queued event lost across the failure")
	}
}

func TestFailBetweenRunsSurfacesAtNextEntry(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	e.Fail(boom)
	if err := e.RunFor(Duration(Second)); !errors.Is(err, boom) {
		t.Fatalf("RunFor = %v, want %v", err, boom)
	}
	if err := e.RunFor(Duration(Second)); err != nil {
		t.Fatalf("failure not cleared after surfacing: %v", err)
	}
}

func TestFailSurfacesFromDrain(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	e.Schedule(1*Second, "fail", func() { e.Fail(boom) })
	if err := e.Drain(100); !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want %v", err, boom)
	}
}

func TestFailFirstWins(t *testing.T) {
	e := NewEngine()
	first, second := errors.New("first"), errors.New("second")
	e.Fail(first)
	e.Fail(second)
	if err := e.RunFor(Duration(Second)); !errors.Is(err, first) {
		t.Fatalf("RunFor = %v, want the first failure", err)
	}
}

func TestFailNilIsNoop(t *testing.T) {
	e := NewEngine()
	e.Fail(nil)
	if err := e.RunFor(Duration(Second)); err != nil {
		t.Fatalf("RunFor after Fail(nil) = %v, want nil", err)
	}
}
