package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/jobs"
	"repro/internal/trace"
)

// jobShape is the job mix a jobs workload submits.
type jobShape struct {
	Devices int           `json:"devices"`
	Horizon time.Duration `json:"horizon_ns"`
	// Prefix is how many leading jobs-cold jobs the output digest covers.
	Prefix int `json:"prefix"`
}

var stdJobShape = jobShape{Devices: 16, Horizon: 4 * time.Hour, Prefix: 8}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive maps (variant, k) to a non-negative seed.
func derive(variant int64, k int) int64 {
	return int64(splitmix64(splitmix64(uint64(variant))+uint64(k)*0x9e3779b97f4a7c15) & math.MaxInt64)
}

// jobSpec is request k of a jobs workload: a fleet job whose cell
// cycles over the whole corpus grid and whose seed is fresh per k.
func jobSpec(variant int64, k int, sh jobShape) jobs.Spec {
	cells := corpus.Cells()
	return jobs.Spec{
		Kind:    jobs.KindFleet,
		Cell:    cells[k%len(cells)].String(),
		Seed:    derive(variant, k),
		Devices: sh.Devices,
		Horizon: jobs.Duration(sh.Horizon),
	}
}

// service is a jobs.Manager with default options behind the jobs HTTP
// API on a loopback listener, plus the HTTP client that drives it.
type service struct {
	m      *jobs.Manager
	srv    *http.Server
	base   string
	client *http.Client
	served chan struct{}

	// stages maps job ID to the lifecycle stage walls the manager
	// published for it; filled only while traced.
	mu     sync.Mutex
	stages map[string]*trace.Summary
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		m:      jobs.NewManager(jobs.Options{}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		stages: make(map[string]*trace.Summary),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		}},
	}
	mux := http.NewServeMux()
	jobs.Register(mux, s.m)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// traceStages starts collecting the manager's per-job stage walls.
func (s *service) traceStages() {
	s.m.SetTracePublisher(func(sum *trace.Summary) {
		s.mu.Lock()
		s.stages[sum.JobID] = sum
		s.mu.Unlock()
	})
}

func (s *service) summary(id string) *trace.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stages[id]
}

// close shuts the server down, stops the manager and waits for both.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout here leaves nothing to clean up but the listener
	<-s.served
	s.m.Close()
	s.client.CloseIdleConnections()
}

// post submits a spec and returns the job status and HTTP code.
func (s *service) post(spec jobs.Spec) (jobs.Status, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobs.Status{}, 0, err
	}
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobs.Status{}, 0, err
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return jobs.Status{}, resp.StatusCode, fmt.Errorf("decode status: %w", err)
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return st, resp.StatusCode, nil
}

// follow reads the job's SSE stream until the server ends it and
// returns the job's final state. A stream subscribed just as the job
// finished can end without the terminal frame; the job's status then
// says how it ended.
func (s *service) follow(id string) (string, error) {
	state, err := s.stream(id)
	if err != nil || state == jobs.StateDone || state == jobs.StateFailed || state == jobs.StateCanceled {
		return state, err
	}
	resp, err := s.client.Get(s.base + "/jobs/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("decode status: %w", err)
	}
	return st.State, nil
}

// stream reads the job's SSE stream to its end and returns the last
// state it reported.
func (s *service) stream(id string) (string, error) {
	resp, err := s.client.Get(s.base + "/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") || !strings.Contains(line, `"state"`) {
			continue
		}
		var f struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &f); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		state = f.State
	}
	return state, sc.Err()
}

// fetch GETs one artifact.
func (s *service) fetch(id, name string) ([]byte, int, error) {
	resp, err := s.client.Get(s.base + "/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// coldJob runs one request cycle of a fresh spec: POST, follow the
// events to the terminal state, GET summary.json. It records the
// request's spans on tr and returns the summary bytes.
func (s *service) coldJob(spec jobs.Spec, tr *tracer) ([]byte, opResult) {
	r := opResult{attempted: 1}
	t0 := time.Now()
	st, code, err := s.post(spec)
	t1 := time.Now()
	if err != nil || code != http.StatusAccepted {
		r.failed = 1
		return nil, r
	}
	state, err := s.follow(st.ID)
	t2 := time.Now()
	if err != nil || state != jobs.StateDone {
		r.failed = 1
		return nil, r
	}
	body, code, err := s.fetch(st.ID, "summary.json")
	t3 := time.Now()
	if err != nil || code != http.StatusOK {
		r.failed = 1
		return nil, r
	}
	r.lat = t3.Sub(t0)
	r.devices = spec.Devices
	r.simHours = float64(spec.Devices) * time.Duration(spec.Horizon).Hours()
	if tr != nil {
		// The job's lifecycle overlaps the POST and the event stream, so
		// the ledger splits the request into the manager's stages and
		// the fetch; the POST and stream round trips are kept as spans
		// of their own, outside the ledger.
		root := tr.add("request", -1, t0, t3.Sub(t0))
		if sum := s.summary(st.ID); sum != nil {
			addStages(tr, sum, root, t2)
		}
		tr.add("jobs.artifact_fetch", root, t2, t3.Sub(t2))
		tr.add("jobs.submit", -1, t0, t1.Sub(t0))
		tr.add("jobs.events", -1, t1, t2.Sub(t1))
	}
	return body, r
}

// addStages records the manager's wall-clock lifecycle stages as spans
// under parent. Stages carry durations only; they are placed to end at
// end, the moment the client learned the job's outcome, so they
// include none of the client's own latency. "artifact-write" is the
// tail of "running".
func addStages(tr *tracer, sum *trace.Summary, parent int, end time.Time) {
	var queued, running, write time.Duration
	for _, st := range sum.Stages {
		d := time.Duration(st.WallMS * 1e6)
		switch st.Name {
		case "queued":
			queued = d
		case "running":
			running = d
		case "artifact-write":
			write = d
		case "cache-hit":
			tr.add("jobs.cache_hit", parent, end.Add(-d), d)
			return
		}
	}
	start := end.Add(-running)
	tr.add("jobs.queue_wait", parent, start.Add(-queued), queued)
	run := tr.add("jobs.run", parent, start, running)
	tr.add("jobs.artifact_write", run, end.Add(-write), write)
}

// digestBodies hashes artifact bodies in job order.
func digestBodies(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// warmupJob is the spec index of jobs-cold's warm-up job, far beyond
// any index a measured phase reaches.
const warmupJob = 1 << 30

// jobsCold is the write side of the jobs service: every request is a
// fresh spec, so every job simulates, renders and fills the cache.
type jobsCold struct {
	variant int64
	shape   jobShape
	svc     *service
	// prefix holds summary.json of jobs 0..Prefix-1. Each index is
	// written once, by the client that ran the job, and read only after
	// the measured phase.
	prefix [][]byte
}

func (w *jobsCold) setup() error {
	svc, err := startService()
	if err != nil {
		return err
	}
	w.svc = svc
	w.prefix = make([][]byte, w.shape.Prefix)
	// One warm-up job outside the measured spec sequence fills lazy
	// state (code paths, heap size) before timing starts.
	if _, r := svc.coldJob(jobSpec(w.variant, warmupJob, w.shape), nil); r.failed != 0 {
		return fmt.Errorf("jobs-cold: warm-up job failed")
	}
	return nil
}

func (w *jobsCold) close() {
	if w.svc != nil {
		w.svc.close()
	}
}

func (w *jobsCold) clients() int { return nproc() }
func (w *jobsCold) minOps() int  { return w.shape.Prefix }

func (w *jobsCold) op(_, k int, tr *tracer) opResult {
	spec := jobSpec(w.variant, k, w.shape)
	body, r := w.svc.coldJob(spec, tr)
	if r.failed != 0 {
		return r
	}
	if k < len(w.prefix) {
		w.prefix[k] = body
	}
	// Every summary must be the one for this spec; the leading ones are
	// also checked byte for byte against the committed digest.
	norm, err := spec.Normalize(w.svc.m.Limits())
	if err != nil || !bytes.Contains(body, []byte(`"key": "`+norm.Key()+`"`)) {
		r.bad = fmt.Sprintf("jobs-cold: job %d summary does not carry its spec key", k)
	}
	return r
}

// digest covers summary.json of the first Prefix jobs in job order.
func (w *jobsCold) digest() string { return digestBodies(w.prefix) }

// cacheProbe resubmits the last n specs the measured phase ran, which
// the cache still holds, and records each hit's cache-hit stage under a
// root outside the ledger. jobs-cold itself never hits the cache, so
// this is where the traced run times the cache's read side.
func (w *jobsCold) cacheProbe(tr *tracer, ops, n int) (attempted, failed int) {
	w.svc.traceStages()
	defer w.svc.m.SetTracePublisher(nil)
	for k := max(ops-n, 0); k < ops; k++ {
		attempted++
		t0 := time.Now()
		st, code, err := w.svc.post(jobSpec(w.variant, k, w.shape))
		t1 := time.Now()
		if err != nil || code != http.StatusOK || !st.Cached {
			failed++
			continue
		}
		root := tr.add("jobs.cache_probe", -1, t0, t1.Sub(t0))
		if sum := w.svc.summary(st.ID); sum != nil {
			addStages(tr, sum, root, t1)
		}
	}
	return attempted, failed
}
