package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/corpus"
)

// cheapSpec is the test workhorse: one device, the corpus's minimum
// horizon, the quietest archetype.
func cheapSpec(seed int64) Spec {
	return Spec{
		Kind:    KindScenario,
		Cell:    "idle-mostly/benign",
		Seed:    seed,
		Horizon: Duration(time.Hour),
	}
}

func submitAndWait(t *testing.T, m *Manager, spec Spec) *Job {
	t.Helper()
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", j.ID)
	}
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job %s state = %s (%s), want done", j.ID, st.State, st.Error)
	}
	return j
}

func assertSameArtifacts(t *testing.T, a, b Artifacts, what string) {
	t.Helper()
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		t.Fatalf("%s: artifact sets differ: %v vs %v", what, an, bn)
	}
	for _, name := range an {
		if !bytes.Equal(a.Files[name], b.Files[name]) {
			t.Errorf("%s: artifact %s differs (%d vs %d bytes)",
				what, name, len(a.Files[name]), len(b.Files[name]))
		}
	}
}

// TestGoldenResubmitCacheHit is the tentpole's core acceptance test:
// resubmitting an identical spec must return Cached=true and
// byte-identical artifacts, with the hit counted.
func TestGoldenResubmitCacheHit(t *testing.T) {
	m := NewManager(Options{Runners: 1})
	defer m.Close()

	first := submitAndWait(t, m, cheapSpec(7))
	if first.Status().Cached {
		t.Fatal("first submission reported cached")
	}
	firstArts, _ := first.Artifacts()
	if len(firstArts.Files) == 0 {
		t.Fatal("first run produced no artifacts")
	}

	second := submitAndWait(t, m, cheapSpec(7))
	st := second.Status()
	if !st.Cached {
		t.Fatal("identical resubmission not served from cache")
	}
	if second.ID == first.ID {
		t.Fatal("cached job reused the original's ID")
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", second.Key, first.Key)
	}
	secondArts, _ := second.Artifacts()
	assertSameArtifacts(t, firstArts, secondArts, "resubmit")

	cs := m.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", cs)
	}
}

// TestGoldenIndependentManagers: two fresh managers given the same spec
// produce byte-identical artifacts — the determinism claim the content
// address rests on, checked across processes' worth of state.
func TestGoldenIndependentManagers(t *testing.T) {
	m1 := NewManager(Options{Runners: 1})
	defer m1.Close()
	m2 := NewManager(Options{Runners: 1})
	defer m2.Close()

	a1, _ := submitAndWait(t, m1, cheapSpec(11)).Artifacts()
	a2, _ := submitAndWait(t, m2, cheapSpec(11)).Artifacts()
	assertSameArtifacts(t, a1, a2, "independent managers")
}

// TestGoldenWorkerIndependence: a fleet job's artifacts are
// byte-identical at Workers=1 and Workers=8 — which is exactly why
// Workers lives in Limits, outside the content address.
func TestGoldenWorkerIndependence(t *testing.T) {
	spec := Spec{
		Kind:    KindFleet,
		Cell:    "idle-mostly/intermittent-drain",
		Seed:    23,
		Devices: 4,
		Horizon: Duration(time.Hour),
	}
	m1 := NewManager(Options{Runners: 1, Limits: Limits{Workers: 1}})
	defer m1.Close()
	m8 := NewManager(Options{Runners: 1, Limits: Limits{Workers: 8}})
	defer m8.Close()

	a1, _ := submitAndWait(t, m1, spec).Artifacts()
	a8, _ := submitAndWait(t, m8, spec).Artifacts()
	assertSameArtifacts(t, a1, a8, "workers 1 vs 8")
}

// fleetDigest pins every artifact of 16 fleet jobs, one per corpus cell
// (seed 100+i, 8 devices x 4 h): SHA-256 over "cell/name\n" followed by
// the artifact bytes, in sorted cell/name order. Only a traced device
// keeps a ring (its kernel log), so only idle-mostly/intermittent-drain's
// metrics.prom carries the telemetry_ring_capacity and
// telemetry_events_dropped series. Every job's devices carry a
// watchdog, so every metrics.prom carries obsv_findings_dropped.
const fleetDigest = "c313c34ac8bd24fb4d3bcae6dbca3d7bf0c7bb2106ec490ffb7203f457c9e598"

// TestFleetArtifactDigest pins the bytes of all 96 artifacts across the
// corpus grid, so a change to any observer, encoder or simulation path
// that moves one float bit fails here. The digest holds for amd64 only:
// elsewhere Go may fuse a multiply and an add into one instruction,
// which rounds once instead of twice.
func TestFleetArtifactDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64; Go may fuse multiply-add on %s, changing float rounding", runtime.GOARCH)
	}
	m := NewManager(Options{Runners: 1})
	defer m.Close()
	files := map[string][]byte{}
	for i, c := range corpus.Cells() {
		a, _ := submitAndWait(t, m, Spec{
			Kind:    KindFleet,
			Cell:    c.String(),
			Seed:    int64(100 + i),
			Devices: 8,
			Horizon: Duration(4 * time.Hour),
		}).Artifacts()
		for name, b := range a.Files {
			files[c.String()+"/"+name] = b
		}
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		h.Write([]byte(name + "\n"))
		h.Write(files[name])
	}
	if len(names) != 96 {
		t.Fatalf("%d artifacts, want 96", len(names))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fleetDigest {
		t.Fatalf("artifact digest %s, want %s", got, fleetDigest)
	}
}

// TestCorpusJobArtifacts: the corpus kind runs the replay harness and
// returns its deterministic table plus render.
func TestCorpusJobArtifacts(t *testing.T) {
	m := NewManager(Options{Runners: 1})
	defer m.Close()
	spec := Spec{
		Kind:    KindCorpus,
		Cell:    "idle-mostly/benign",
		Seed:    5,
		Reps:    2,
		Horizon: Duration(time.Hour),
	}
	j := submitAndWait(t, m, spec)
	a, _ := j.Artifacts()
	for _, name := range []string{"summary.json", "summary.txt"} {
		if len(a.Files[name]) == 0 {
			t.Errorf("corpus job missing artifact %s", name)
		}
	}
	// Resubmit hits the cache.
	if !submitAndWait(t, m, spec).Status().Cached {
		t.Fatal("corpus resubmission not cached")
	}
}

// TestScenarioArtifactSet pins the artifact inventory of a
// scenario/fleet job.
func TestScenarioArtifactSet(t *testing.T) {
	m := NewManager(Options{Runners: 1})
	defer m.Close()
	a, _ := submitAndWait(t, m, cheapSpec(3)).Artifacts()
	want := []string{"flame.html", "flame.txt", "metrics.prom", "summary.json", "trace.json", "watchdog.json"}
	got := a.Names()
	if len(got) != len(want) {
		t.Fatalf("artifacts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("artifacts = %v, want %v", got, want)
		}
		if len(a.Files[want[i]]) == 0 {
			t.Errorf("artifact %s is empty", want[i])
		}
	}
}

// TestArtifactsAreExactSize: every artifact of a traced fleet job on an
// attack cell and of a corpus job sits in an array of exactly its
// length, so the cache, which charges each file its len, is charged
// what it holds.
func TestArtifactsAreExactSize(t *testing.T) {
	m := NewManager(Options{Runners: 1, TraceSampleRate: 1})
	defer m.Close()
	for _, spec := range []Spec{
		{Kind: KindFleet, Cell: "gamer/coordinated-collateral", Seed: 7, Devices: 4, Horizon: Duration(4 * time.Hour)},
		{Kind: KindCorpus, Cell: "idle-mostly/benign", Seed: 5, Reps: 2, Horizon: Duration(time.Hour)},
	} {
		a, _ := submitAndWait(t, m, spec).Artifacts()
		var held int64
		for _, name := range a.Names() {
			b := a.Files[name]
			if len(b) == 0 || cap(b) != len(b) {
				t.Errorf("%s %s: len %d, cap %d", spec.Kind, name, len(b), cap(b))
			}
			held += int64(cap(b))
		}
		if a.Bytes() != held {
			t.Errorf("%s: cache charged %d bytes for %d held", spec.Kind, a.Bytes(), held)
		}
	}
}
