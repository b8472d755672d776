package serve

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sccpipe/internal/faults"
)

// quickChaosRecovery is a recovery policy with microsecond backoffs so
// chaos tests spend no wall time sleeping. StallTimeout stays 0 (watchdog
// off) — these plans never stall.
func quickChaosRecovery() *faults.RecoveryPolicy {
	return &faults.RecoveryPolicy{
		MaxRetries: 3,
		Backoff:    50 * time.Microsecond,
		MaxBackoff: time.Millisecond,
	}
}

// TestChaosRenderJobSurvivesDeath runs a render job under a plan that
// kills pipeline 1 and injects one transient sepia failure: the stream
// must still deliver every frame exactly once and in order, the summary
// must carry the degraded report, and the robustness metrics must move.
func TestChaosRenderJobSurvivesDeath(t *testing.T) {
	plan := &faults.Plan{Seed: 42, Rules: []faults.Rule{
		{Kind: faults.KindDeath, Pipeline: 1, Seq: 1},
		{Kind: faults.KindTransient, Pipeline: 0, Stage: "sepia", Seq: 0, Times: 1},
	}}
	s := New(Config{Workers: 1, Chaos: plan, Recovery: quickChaosRecovery()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJob(t, ts.URL, smallRender(4))
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	frames, tail := readStream(t, resp)
	if len(frames) != 4 {
		t.Fatalf("streamed %d frames, want 4 despite the dead pipeline", len(frames))
	}
	for i, f := range frames {
		if f != i {
			t.Fatalf("frame order %v, want 0..3", frames)
		}
	}
	deg, _ := tail["degraded"].(string)
	if !strings.Contains(deg, "dead pipeline") {
		t.Fatalf("summary degraded = %q, want a dead-pipeline report", deg)
	}

	m := scrapeMetrics(t, ts.URL)
	if got := m["sccserve_pipelines_died_total"]; got < 1 {
		t.Errorf("pipelines_died_total = %v, want >= 1", got)
	}
	if got := m["sccserve_jobs_degraded_total"]; got != 1 {
		t.Errorf("jobs_degraded_total = %v, want 1", got)
	}
	// At least one sepia retry; redistributed items re-consult the injector
	// under their new carrier pipeline, so the exact-seq rule may fire a
	// second time for a redone strip depending on what was in flight when
	// the pipeline died.
	if got := m[`sccserve_stage_retries_total{stage="sepia"}`]; got < 1 {
		t.Errorf(`stage_retries_total{stage="sepia"} = %v, want >= 1`, got)
	}
	if got := m["sccserve_jobs_completed_total"]; got != 1 {
		t.Errorf("jobs_completed_total = %v, want 1 (degraded still counts as completed)", got)
	}
}

// TestChaosCleanPlanLeavesSummaryClean: a chaos config whose rules never
// fire must not mark jobs degraded.
func TestChaosCleanPlanLeavesSummaryClean(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Kind: faults.KindDeath, Pipeline: 1, Seq: 999}, // beyond the last frame
	}}
	s := New(Config{Workers: 1, Chaos: plan, Recovery: quickChaosRecovery()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJob(t, ts.URL, smallRender(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	frames, tail := readStream(t, resp)
	if len(frames) != 2 {
		t.Fatalf("streamed %d frames, want 2", len(frames))
	}
	if deg, ok := tail["degraded"]; ok {
		t.Fatalf("clean run carries degraded = %v", deg)
	}
	if got := s.m.Get(mJobsDegraded); got != 0 {
		t.Fatalf("jobs_degraded_total = %v, want 0", got)
	}
}

// TestBreakerTripsOnRepeatedFailures: a plan that kills every pipeline
// makes render jobs fail; Threshold consecutive failures must open the
// breaker, and further submissions bounce with 503 before admission.
func TestBreakerTripsOnRepeatedFailures(t *testing.T) {
	plan := &faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Kind: faults.KindDeath, Pipeline: 0, Seq: 0},
		{Kind: faults.KindDeath, Pipeline: 1, Seq: 0},
	}}
	s := New(Config{
		Workers:  1,
		Chaos:    plan,
		Recovery: quickChaosRecovery(),
		Breaker:  BreakerConfig{Threshold: 2, Cooldown: time.Hour},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := postJob(t, ts.URL, smallRender(2))
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("doomed job %d: status %d (%s), want 500", i, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "dead") {
			t.Fatalf("doomed job %d body %q does not name the dead pipelines", i, body)
		}
	}

	resp := postJob(t, ts.URL, smallRender(2))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-trip status %d (%s), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "circuit breaker open") {
		t.Fatalf("post-trip body %q does not name the breaker", body)
	}

	m := scrapeMetrics(t, ts.URL)
	checks := map[string]float64{
		"sccserve_breaker_trips_total": 1,
		"sccserve_breaker_state":       breakerOpen,
		"sccserve_jobs_failed_total":   2,
		`sccserve_jobs_rejected_total{reason="breaker_open"}`: 1,
	}
	for name, want := range checks {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestBreakerProbeNotLostOnClientCausedFailure is the wedge regression:
// once tripped, the breaker admits a single half-open probe. If that
// probe ends for reasons that say nothing about backend health (here its
// client-chosen deadline expires), the probe slot must be released — not
// recorded as a backend failure — so the next submission can probe and a
// success can close the breaker. Before the fix the probe was either
// counted as a failure (re-opening for a full cooldown) or, on the
// admission-reject paths, simply lost, wedging the server half-open with
// every request bounced 503 until restart.
func TestBreakerProbeNotLostOnClientCausedFailure(t *testing.T) {
	// The chaos plan kills every pipeline, so render jobs genuinely fail;
	// simulate jobs are unaffected by chaos and succeed.
	plan := &faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Kind: faults.KindDeath, Pipeline: 0, Seq: 0},
		{Kind: faults.KindDeath, Pipeline: 1, Seq: 0},
	}}
	s := New(Config{
		Workers:  1,
		Chaos:    plan,
		Recovery: quickChaosRecovery(),
		Breaker:  BreakerConfig{Threshold: 1, Cooldown: time.Hour},
	})
	var clockMu sync.Mutex
	now := time.Unix(0, 0)
	s.brk.now = func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	// Held jobs (Frames == 5) sleep past their own 50 ms deadline before
	// the pipeline starts, so they end on a client-caused cancellation.
	s.testHookRunning = func(spec JobSpec) {
		if spec.Frames == 5 {
			time.Sleep(200 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A doomed render job trips the breaker.
	resp := postJob(t, ts.URL, smallRender(2))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("doomed job status %d, want 500", resp.StatusCode)
	}
	if st := s.brk.State(); st != breakerOpen {
		t.Fatalf("breaker state %d after failure, want open", st)
	}

	// After the cooldown the next submission is the probe; its deadline
	// expires before the pipeline runs, a client-caused ending.
	clockMu.Lock()
	now = now.Add(time.Hour)
	clockMu.Unlock()
	probe := smallRender(5)
	probe.TimeoutMS = 50
	resp = postJob(t, ts.URL, probe)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("probe job unexpectedly succeeded; it was meant to hit its deadline")
	}

	// The lost-probe wedge: the breaker must still be probeable (half-open
	// with the slot free), not re-opened and not stuck. A successful
	// simulate probe closes it — without advancing the clock, so a
	// re-opened breaker would reject this with 503 for another hour.
	if st := s.brk.State(); st != breakerHalfOpen {
		t.Fatalf("breaker state %d after client-caused probe ending, want half-open", st)
	}
	resp = postJob(t, ts.URL, smallSimulate())
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-probe simulate status %d, want 200 (breaker wedged?)", resp.StatusCode)
	}
	if st := s.brk.State(); st != breakerClosed {
		t.Fatalf("breaker state %d after successful probe, want closed", st)
	}
	if got := s.m.Get(mBreakerTrips); got != 1 {
		t.Fatalf("breaker trips = %v, want 1 (client-caused ending must not re-trip)", got)
	}
}

// TestHardStopBoundsDrain is the shutdown-hardening regression: a job
// wedged in an injected retry loop at drain time must not outlive the
// drain deadline — ListenAndServe escalates to HardStop, the job's
// context is cancelled, and the server exits promptly.
func TestHardStopBoundsDrain(t *testing.T) {
	// Every blur application fails, and the retry budget is effectively
	// infinite with slow backoffs: the job can never finish on its own.
	plan := &faults.Plan{Seed: 3, Rules: []faults.Rule{
		{Kind: faults.KindTransient, Pipeline: faults.Any, Stage: "blur", Seq: faults.Any, Prob: 1, Times: 1 << 20},
	}}
	s := New(Config{
		Workers: 1,
		Chaos:   plan,
		Recovery: &faults.RecoveryPolicy{
			MaxRetries: 1 << 20,
			Backoff:    20 * time.Millisecond,
			MaxBackoff: 40 * time.Millisecond,
		},
		DrainTimeout: 200 * time.Millisecond,
	})
	started := make(chan struct{}, 1)
	s.testHookRunning = func(JobSpec) { started <- struct{}{} }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- s.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrc <- a.String() })
	}()
	var url string
	select {
	case a := <-addrc:
		url = "http://" + a
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	}

	jobc := make(chan *http.Response, 1)
	go func() { jobc <- postJob(t, url, smallRender(2)) }()
	<-started
	time.Sleep(50 * time.Millisecond) // let it enter the retry/backoff loop

	begin := time.Now()
	cancel()
	select {
	case err := <-errc:
		// The graceful window expired with the job still retrying, so the
		// drain reports the deadline — but only after the hard stop
		// actually unwound the job.
		if err == nil {
			t.Fatal("drain reported clean with a wedged job in flight")
		}
		if elapsed := time.Since(begin); elapsed > 3*time.Second {
			t.Fatalf("shutdown took %v, want bounded by drain + hard-stop", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return: the wedged job outlived SIGTERM")
	}

	// The job handler itself must have finished: the hard stop cancelled
	// its context and the failure surfaced to the client.
	select {
	case resp := <-jobc:
		if resp.StatusCode == http.StatusOK {
			frames, tail := readStream(t, resp)
			if tail["error"] == nil {
				t.Fatalf("wedged job claims success: %d frames, tail %v", len(frames), tail)
			}
		} else {
			resp.Body.Close()
		}
	case <-time.After(2 * time.Second):
		t.Fatal("job response never arrived after hard stop")
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("jobs still registered after hard stop: %v", err)
	}
	if got := s.m.Get(mFailed); got != 1 {
		t.Fatalf("failed jobs = %v, want 1", got)
	}
}

// TestChaosSoak hammers a chaos-configured server with a barrage of small
// render jobs under a seeded survivable plan: transients on every stage,
// a deterministic pipeline death, and slowed transfers. Every job must
// complete every frame, byte-identical to a clean server's frames for the
// same spec; jobs alternate the one- and n-renderer configurations, which
// chaos mode runs as is. The barrage length scales with CHAOS_SOAK_JOBS
// (make chaos-soak raises it and adds -race); the default stays small so
// the deterministic short version rides along in `make check`.
//
// CHAOS_SOAK_FUSE=1 (set by make chaos-soak) additionally runs the soak
// with band-parallel stages, so the race detector sweeps the fused pass
// and the band pool while faults land on fused-away stage names;
// CHAOS_SOAK_FUSE=0 soaks the unfused five-stage layout instead. Unset,
// the server default (fusion on, serial bands) is soaked.
func TestChaosSoak(t *testing.T) {
	jobs := 6
	if v := os.Getenv("CHAOS_SOAK_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_SOAK_JOBS %q", v)
		}
		jobs = n
	}
	plan := &faults.Plan{Seed: 1234, Rules: []faults.Rule{
		{Kind: faults.KindTransient, Pipeline: faults.Any, Seq: faults.Any, Prob: 0.2},
		{Kind: faults.KindTransfer, Pipeline: faults.Any, Seq: faults.Any, Prob: 0.1},
		{Kind: faults.KindTransferSlow, Pipeline: faults.Any, Seq: faults.Any, Prob: 0.1, Delay: 200 * time.Microsecond},
		{Kind: faults.KindDeath, Pipeline: 1, Seq: 2},
	}}
	cfg := Config{Workers: 2, QueueDepth: 64, Chaos: plan, Recovery: quickChaosRecovery()}
	switch os.Getenv("CHAOS_SOAK_FUSE") {
	case "1":
		cfg.StageWorkers = 2 // fused (the default) + parallel bands
	case "0":
		cfg.NoFuse = true
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const frames = 3
	renderers := []string{"one", "n"}
	soakSpec := func(i int) JobSpec {
		spec := smallRender(frames)
		spec.Renderer = renderers[i%len(renderers)]
		return spec
	}
	clean := httptest.NewServer(New(Config{Workers: 1}))
	defer clean.Close()
	want := map[string][][]byte{}
	for i := range renderers {
		spec := soakSpec(i)
		resp := postJob(t, clean.URL, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("clean %s job: status %d", spec.Renderer, resp.StatusCode)
		}
		want[spec.Renderer], _ = readFrameBytes(t, resp)
	}

	results := make(chan error, jobs)
	sem := make(chan struct{}, 2)
	for i := 0; i < jobs; i++ {
		spec := soakSpec(i)
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			resp := postJob(t, ts.URL, spec)
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				results <- &soakError{resp.StatusCode, string(body)}
				return
			}
			got, tail := readFrameBytes(t, resp)
			if len(got) != frames {
				results <- &soakError{0, "short stream"}
				return
			}
			if tail["frames"] != float64(frames) {
				results <- &soakError{0, "bad summary"}
				return
			}
			for f := range got {
				if !bytes.Equal(got[f], want[spec.Renderer][f]) {
					results <- &soakError{0, "renderer " + spec.Renderer + ": frame " + strconv.Itoa(f) + " differs from a clean run"}
					return
				}
			}
			results <- nil
		}()
	}
	for i := 0; i < jobs; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("soak job failed: %v", err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("soak stalled: jobs did not finish")
		}
	}

	m := scrapeMetrics(t, ts.URL)
	if got := m["sccserve_jobs_completed_total"]; got != float64(jobs) {
		t.Fatalf("completed = %v, want %v", got, jobs)
	}
	if got := m["sccserve_jobs_failed_total"]; got != 0 {
		t.Fatalf("failed = %v, want 0 (the plan is survivable)", got)
	}
	// The death rule fires in every job, so every job is degraded and the
	// re-partitioning machinery is exercised each time.
	if got := m["sccserve_jobs_degraded_total"]; got != float64(jobs) {
		t.Fatalf("degraded = %v, want %v", got, jobs)
	}
	if got := m["sccserve_pipelines_died_total"]; got != float64(jobs) {
		t.Fatalf("pipelines_died = %v, want %v", got, jobs)
	}
	if got := m["sccserve_frames_served_total"]; got != float64(jobs*frames) {
		t.Fatalf("frames_served = %v, want %v", got, jobs*frames)
	}
}

type soakError struct {
	status int
	msg    string
}

func (e *soakError) Error() string {
	if e.status != 0 {
		return "status " + strconv.Itoa(e.status) + ": " + e.msg
	}
	return e.msg
}
