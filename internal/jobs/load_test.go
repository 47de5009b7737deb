package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obsv"
)

// startPlane boots an obsv server with the jobs API attached and
// returns its base URL plus a shutdown func.
func startPlane(t *testing.T, opts Options) (string, *Manager, func()) {
	t.Helper()
	srv := obsv.NewServer()
	m := NewManager(opts)
	Attach(srv, m)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return "http://" + addr, m, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
}

func postSpec(t *testing.T, base string, spec Spec) (int, Status) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func waitDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Status{}
}

// waitRunning polls job id until it is running; it fails the test if
// the job ends first (too fast for the caller) or never starts.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var cur Status
		_ = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if cur.State == StateRunning {
			return
		}
		if cur.State != StateQueued {
			t.Fatalf("job %s reached %s before it was seen running", id, cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running", id)
		}
		// No sleep: the poll loop must catch the running window.
	}
}

func getArtifact(t *testing.T, base, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s for %s: HTTP %d", name, id, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadConcurrentSubmitScrape is the load-test satellite: concurrent
// submitters racing a small queue while scrapers hammer /metrics, /jobs
// and the SSE streams. Run under -race in the Makefile's race gate. It
// asserts: no deadlock (everything returns), overload surfaces as
// 429 + Retry-After, no submitter sees any other status, and the
// metrics endpoint keeps serving throughout.
func TestLoadConcurrentSubmitScrape(t *testing.T) {
	base, _, stop := startPlane(t, Options{
		Runners:    2,
		QueueDepth: 2,
		Limits:     Limits{Workers: 2},
	})
	defer stop()

	const (
		submitters   = 4
		scrapers     = 2
		scrapePeriod = 2 * time.Millisecond
	)
	var (
		rejected  atomic.Int64
		accepted  atomic.Int64
		badStatus atomic.Int64
		scraping  = make(chan struct{})
		wg        sync.WaitGroup
	)

	// Saturate the plane first: four long fleet jobs (two running, two
	// queued) make the following burst's 429s deterministic instead of
	// a race against millisecond-scale scenario jobs.
	bigSpec := func(seed int64) Spec {
		return Spec{Kind: KindFleet, Cell: "gamer/coordinated-collateral",
			Seed: seed, Devices: 64, Horizon: Duration(8 * time.Hour)}
	}
	for i := 0; i < 4; i++ {
		for {
			code, _ := postSpec(t, base, bigSpec(int64(9000+i)))
			if code == http.StatusAccepted {
				break
			}
			if code != http.StatusTooManyRequests {
				t.Fatalf("big job submit: HTTP %d", code)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Scrapers: /metrics and /jobs until the submitters finish.
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-scraping:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/jobs"} {
					resp, err := http.Get(base + path)
					if err != nil {
						t.Errorf("scrape %s: %v", path, err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				time.Sleep(scrapePeriod)
			}
		}()
	}

	// SSE reader: follow the live trace stream (always mounted, fed as
	// jobs finish) while the storm runs, proving streams and submissions
	// coexist.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(sseCtx, "GET", base+"/trace/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return // cancelled before connect is fine
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
	}()

	// Submitters: unique seeds (every job a cache miss) against the
	// saturated plane — each keeps submitting until it has personally
	// seen both a 429 (while the big jobs occupy the queue) and a 2xx
	// (after they drain). Overload must surface as 429, never as a hang
	// or a 5xx.
	deadline := time.Now().Add(2 * time.Minute)
	var swg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		swg.Add(1)
		go func(s int) {
			defer swg.Done()
			sawReject, sawAccept := false, false
			for k := 0; !(sawReject && sawAccept); k++ {
				if time.Now().After(deadline) {
					t.Errorf("submitter %d: deadline (reject=%v accept=%v)", s, sawReject, sawAccept)
					return
				}
				spec := cheapSpec(int64(1 + s*100000 + k))
				body, _ := json.Marshal(spec)
				resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusAccepted:
					accepted.Add(1)
					sawAccept = true
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					rejected.Add(1)
					sawReject = true
				default:
					badStatus.Add(1)
					t.Errorf("submit: unexpected HTTP %d", resp.StatusCode)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				time.Sleep(time.Millisecond)
			}
		}(s)
	}
	swg.Wait()
	close(scraping)
	sseCancel()
	wg.Wait()

	if badStatus.Load() != 0 {
		t.Fatalf("%d submissions got a status outside {200,202,429}", badStatus.Load())
	}
	if rejected.Load() == 0 {
		t.Fatal("no 429s observed: backpressure never engaged against a depth-2 queue")
	}
	if accepted.Load() == 0 {
		t.Fatal("every submission rejected")
	}
	t.Logf("accepted %d, rejected %d", accepted.Load(), rejected.Load())

	// The rejected counter must surface on /metrics.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"jobs_rejected", "jobs_cache_misses", "jobs_submitted"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestLoadCacheByteIdentityOverHTTP: the full round trip — submit, wait,
// fetch bytes; resubmit, get an immediate 200 cached job, fetch the
// same artifact names and compare byte-for-byte.
func TestLoadCacheByteIdentityOverHTTP(t *testing.T) {
	base, _, stop := startPlane(t, Options{Runners: 1})
	defer stop()

	code, st := postSpec(t, base, cheapSpec(777))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d, want 202", code)
	}
	first := waitDone(t, base, st.ID)
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run = %+v", first)
	}

	code, st2 := postSpec(t, base, cheapSpec(777))
	if code != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200 (cached)", code)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmit = %+v, want immediate cached done", st2)
	}
	for _, name := range first.Artifacts {
		a := getArtifact(t, base, first.ID, name)
		b := getArtifact(t, base, st2.ID, name)
		if !bytes.Equal(a, b) {
			t.Errorf("artifact %s differs between original and cached job", name)
		}
		if len(a) == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
}

// TestLoadMidJobCancellation: cancel a running fleet job over HTTP and
// watch it reach the canceled state instead of done.
func TestLoadMidJobCancellation(t *testing.T) {
	base, _, stop := startPlane(t, Options{Runners: 1, Limits: Limits{Workers: 1}})
	defer stop()

	// Big enough to still be running when the cancel lands: 256 devices
	// × 16h on one worker — the full default sim-hours budget, seconds
	// of wall time.
	spec := Spec{Kind: KindFleet, Cell: "gamer/coordinated-collateral", Seed: 99,
		Devices: 256, Horizon: Duration(16 * time.Hour)}
	code, st := postSpec(t, base, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	waitRunning(t, base, st.ID)
	resp, err := http.Post(base+"/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	final := waitDone(t, base, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", final.State)
	}
	// Artifacts must not exist for a canceled job.
	aresp, err := http.Get(base + "/jobs/" + st.ID + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusConflict {
		t.Fatalf("artifacts of canceled job: HTTP %d, want 409", aresp.StatusCode)
	}
}

// TestQueueCancelWhileQueued: cancelling a job that is still queued
// resolves it as canceled without running.
func TestQueueCancelWhileQueued(t *testing.T) {
	m := NewManager(Options{Runners: 1, QueueDepth: 4, Limits: Limits{Workers: 1}})
	defer m.Close()

	// Occupy the single runner with a long job, then queue a victim.
	long, err := m.Submit(Spec{Kind: KindFleet, Cell: "gamer/benign", Seed: 1,
		Devices: 64, Horizon: Duration(8 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m.Submit(cheapSpec(12345))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(victim.ID) {
		t.Fatal("cancel returned false")
	}
	select {
	case <-victim.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("queued victim never resolved")
	}
	if st := victim.Status(); st.State != StateCanceled {
		t.Fatalf("victim state = %s, want canceled", st.State)
	}
	<-long.Done()
}

// TestSubmitAfterClose: Close is terminal and Submit reports it.
func TestSubmitAfterClose(t *testing.T) {
	m := NewManager(Options{Runners: 1})
	m.Close()
	m.Close() // idempotent
	if _, err := m.Submit(cheapSpec(1)); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestServerShutdownClosesManager: the daemon's wiring (Attach on an
// obsv server) is ready before any job arrives, and stopping the server
// closes the manager through its shutdown hook.
func TestServerShutdownClosesManager(t *testing.T) {
	base, m, stop := startPlane(t, Options{Runners: 1})
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before any job = %d, want 200", resp.StatusCode)
	}
	stop()
	if _, err := m.Submit(cheapSpec(1)); err != ErrClosed {
		t.Fatalf("Submit after shutdown = %v, want ErrClosed", err)
	}
}

// TestPlaneShutdownLeavesNoGoroutines: stopping the plane — after one
// job's SSE stream ran to its end, with a second job still running —
// returns the process to its baseline goroutine count.
func TestPlaneShutdownLeavesNoGoroutines(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	base, _, stop := startPlane(t, Options{Runners: 1, Limits: Limits{Workers: 1}})
	code, st := postSpec(t, base, Spec{Kind: KindFleet, Cell: "gamer/coordinated-collateral",
		Seed: 5, Devices: 4, Horizon: Duration(time.Hour)})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// The job's stream ends when the job does.
	resp, err := http.Get(base + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"state":"done"`) {
		t.Fatalf("SSE stream ended without the done frame: %q", b)
	}

	// A second job big enough to still be running when the plane stops.
	code, st = postSpec(t, base, Spec{Kind: KindFleet, Cell: "gamer/benign",
		Seed: 6, Devices: 256, Horizon: Duration(16 * time.Hour)})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitRunning(t, base, st.ID)

	stop()
	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 2s after shutdown, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobSSEStream: a subscriber on /jobs/{id}/events sees the initial
// state frame and, for a completed job, the stream closes with the
// broker.
func TestJobSSEStream(t *testing.T) {
	base, m, stop := startPlane(t, Options{Runners: 1})
	defer stop()

	_, st := postSpec(t, base, cheapSpec(31))
	waitDone(t, base, st.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/jobs/%s/events", base, st.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// The job is done, so its broker is closed: the initial frame
	// arrives and then the stream ends.
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"state":"done"`) {
		t.Fatalf("SSE initial frame = %q, want done state", b)
	}
	_ = m
}
