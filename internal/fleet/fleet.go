// Package fleet is the distributed render fabric: a gateway that shards
// render jobs across a fleet of sccserved worker nodes, one level above
// the paper's on-chip macro pipeline. Each worker is treated as one big
// "pipeline" that can die — the gateway health-checks the static worker
// set, routes each job to the least-loaded healthy node (with rendezvous
// hashing on the job spec as the tie-break, so identical specs stay
// cache-warm on one worker), fails a job over to another node when a
// worker dies mid-stream (reusing faults.RecoveryPolicy's retry budget
// and backoff semantics, and PR 4's rule that client-caused failures
// never count against a backend), and aggregates the whole fleet's
// Prometheus metrics with per-worker labels.
//
// Because rendering is deterministic, failover is exact: the gateway
// resubmits the job to a surviving worker and discards the frames it
// already relayed (each frame part carries its index), so the client's
// stream carries the same frame payload bytes as a single-node run no
// matter how many workers died along the way.
//
// Endpoints:
//
//	POST /jobs     submit a job (serve.JobSpec JSON); routed to a worker
//	GET  /healthz  gateway liveness + fleet state summary
//	GET  /nodes    per-worker table: state, load, version, routing counts
//	GET  /metrics  gateway metrics + fleet-wide worker metrics (labeled)
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sccpipe/internal/codec"
	"sccpipe/internal/faults"
	"sccpipe/internal/host"
	"sccpipe/internal/netfaults"
	"sccpipe/internal/serve"
	"sccpipe/internal/stats"
)

// Config tunes a fleet gateway. At least one of a static worker list or
// enabled dynamic registration is required; every field defaults as
// noted.
type Config struct {
	// Workers is the static list of worker base URLs (e.g.
	// "http://10.0.0.2:8344"); a bare host:port implies http. It may be
	// empty when dynamic registration (LeaseTTL) is enabled — the fleet
	// then populates itself through POST /register.
	Workers []string

	// HealthInterval is the per-node health-check period (default 2s);
	// HealthTimeout bounds each check (default 1s). Probes of one node
	// never overlap — a check that outlives the interval simply delays
	// the next one — so the timeout may exceed the interval: fast
	// cadence with a tolerant deadline is a valid combination.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// FailAfter is how many consecutive health-check or job-forward
	// failures deregister a worker (default 3). Dead workers keep being
	// probed and rejoin on the first success.
	FailAfter int

	// Retry tunes job failover: MaxRetries is the per-job budget of
	// worker attempts beyond the first, and Backoff/MaxBackoff/Seed drive
	// the same deterministic backoff schedule the in-pipeline supervisor
	// uses. Nil takes faults.RecoveryPolicy defaults. OnEvent, when set,
	// receives an EventRetry per failover (Stage is the failed worker).
	Retry *faults.RecoveryPolicy

	// DrainTimeout bounds how long ListenAndServe waits for in-flight
	// jobs after its context is cancelled (default 30s).
	DrainTimeout time.Duration

	// LeaseTTL enables dynamic membership: workers may POST /register
	// and hold a lease of this length, renewed by heartbeats or
	// successful health probes (default 15s; negative disables
	// /register). A dynamic worker whose lease lapses is evicted through
	// the same dead/rejoin path probe failures use.
	LeaseTTL time.Duration
	// ForgetAfter is how long past lease expiry a dead dynamic worker
	// stays in the registry (still probed, visible in /nodes) before
	// being removed entirely (default 10×LeaseTTL).
	ForgetAfter time.Duration

	// QueueDepth bounds the gateway-side admission queue used when every
	// healthy worker is at capacity (default 16; negative disables
	// queueing, restoring the instant-429 behavior). Queued jobs whose
	// client deadline can no longer be met are shed early.
	QueueDepth int

	// StreamTimeoutMin/Max clamp the adaptive per-worker stream timeout:
	// a worker whose next frame takes longer than ~4× its observed p95
	// frame inter-arrival time (bounded by these) is treated as failed
	// and the job fails over — a trickling worker is dropped as
	// decisively as a dead one. Defaults 1s and 30s; StreamTimeoutMax < 0
	// disables the watchdog.
	StreamTimeoutMin time.Duration
	StreamTimeoutMax time.Duration

	// AffinitySlack tunes spec-affinity routing: the rendezvous winner for
	// a job's affinity key (the worker whose render cache is warm for that
	// content) is preferred as long as it carries at most this many more
	// jobs than the least-loaded healthy worker. 0 takes the default of 1;
	// negative disables the preference (pure least-loaded routing with
	// rendezvous tie-break, the pre-affinity behavior).
	AffinitySlack int

	// NetFaults, when set, injects this seeded deterministic network
	// fault plan into all gateway→worker traffic (the sccgated -chaos
	// flag). Probabilistic rules touch only forwarded jobs; partitions
	// sever probes too. The fault epoch advances once per accepted job.
	NetFaults *netfaults.Plan

	// Log receives gateway events (worker deaths, failovers); nil
	// disables logging.
	Log *log.Logger
}

func (c *Config) fillDefaults() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.ForgetAfter <= 0 {
		c.ForgetAfter = 10 * c.LeaseTTL
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.AffinitySlack == 0 {
		c.AffinitySlack = 1
	}
	if c.StreamTimeoutMin <= 0 {
		c.StreamTimeoutMin = time.Second
	}
	if c.StreamTimeoutMax == 0 {
		c.StreamTimeoutMax = 30 * time.Second
	}
}

// Gateway shards jobs across registered workers. Create one with New,
// call Start to launch the health loops (ListenAndServe does both), and
// Close to stop them. It implements http.Handler.
type Gateway struct {
	cfg   Config
	reg   *registry
	retry faults.RecoveryPolicy
	mux   *http.ServeMux
	m     *stats.Counters

	// jobs is the streaming client used for forwarded jobs (no overall
	// timeout — streams are long-lived and context-bound); health is the
	// short-deadline client used by probes and metric scrapes. chaos,
	// when chaos mode is on, is the netfaults transport both share.
	jobs   *http.Client
	health *http.Client
	chaos  *netfaults.Transport

	draining atomic.Bool
	inflight sync.WaitGroup

	loops     sync.WaitGroup
	loopMu    sync.Mutex
	running   bool
	stop      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once

	// Admission queue state (queue.go): qdepth jobs are parked waiting
	// for fleet capacity; wake is closed-and-swapped on capacity changes;
	// svcTimes windows observed job service times for honest Retry-After
	// and deadline shedding.
	qmu      sync.Mutex
	qdepth   int
	wake     chan struct{}
	svcTimes *stats.Window

	start time.Time
}

// New builds a Gateway over the configured worker set. The worker list
// is validated here; health states converge once Start runs the first
// probes (nodes start healthy, so routing works immediately and the
// failover path covers any worker that was already down).
func New(cfg Config) (*Gateway, error) {
	cfg.fillDefaults()
	reg, err := newRegistry(cfg.Workers)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:      cfg,
		reg:      reg,
		retry:    cfg.Retry.Normalize(),
		m:        stats.NewCounters(),
		jobs:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		health:   &http.Client{Timeout: cfg.HealthTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		stop:     make(chan struct{}),
		wake:     make(chan struct{}),
		svcTimes: stats.NewWindow(64),
		start:    time.Now(),
	}
	if !g.registrationEnabled() && len(reg.snapshot()) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured and dynamic registration is disabled")
	}
	if cfg.NetFaults != nil {
		// One shared transport: partitions sever probes and forwards
		// alike, and the per-host request sequence stays one stream.
		g.chaos, err = netfaults.New(*cfg.NetFaults, g.jobs.Transport)
		if err != nil {
			return nil, err
		}
		g.jobs.Transport = g.chaos
		g.health = &http.Client{Timeout: cfg.HealthTimeout, Transport: g.chaos}
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/jobs", g.handleJobs)
	g.mux.HandleFunc("/register", g.handleRegister)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/nodes", g.handleNodes)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	return g, nil
}

// Start launches one health loop per worker plus the lease sweeper
// (idempotent). Workers registered later get their loops from
// handleRegister.
func (g *Gateway) Start() {
	g.startOnce.Do(func() {
		g.loopMu.Lock()
		g.running = true
		for _, n := range g.reg.snapshot() {
			g.startLoopLocked(n)
		}
		if g.registrationEnabled() {
			g.loops.Add(1)
			go g.leaseLoop(g.stop)
		}
		g.loopMu.Unlock()
	})
}

// Close stops the health loops and releases idle connections
// (idempotent). In-flight relayed jobs are not interrupted.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.loops.Wait()
	if t, ok := g.jobs.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	if t, ok := g.health.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// ServeHTTP dispatches to the gateway endpoints.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// BeginDrain stops job admission: submissions get 503 and /healthz flips
// to draining. In-flight relays are unaffected.
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// Drain blocks until every admitted job relay has finished or ctx ends.
func (g *Gateway) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() { g.inflight.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: drain incomplete: %w", ctx.Err())
	}
}

// ListenAndServe serves on addr until ctx is cancelled, then drains:
// admission closes, in-flight relays finish bounded by DrainTimeout (what
// is left when it expires is severed), the health loops stop, and the
// listener shuts down; see serve.ServeAndDrain. ready, if non-nil, is
// called with the bound address before serving.
func (g *Gateway) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	g.Start()
	defer g.Close()
	if ready != nil {
		ready(ln.Addr())
	}
	err = serve.ServeAndDrain(ctx, ln, g, g.cfg.DrainTimeout, g.BeginDrain, nil)
	if errors.Is(err, context.DeadlineExceeded) {
		return nil // the drain window expired and the rest was severed
	}
	return err
}

// logf logs one line if logging is configured.
func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Log != nil {
		g.cfg.Log.Printf(format, args...)
	}
}

// reject records a refused submission and writes the error response.
func (g *Gateway) reject(w http.ResponseWriter, status int, reason, msg string) {
	g.m.Inc(mRejected + `{reason="` + reason + `"}`)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, status)
}

// affinityKey canonicalizes the fields of a normalized job spec that
// determine its RENDERED content — the frames a worker's content-addressed
// render cache would hold for it — into the rendezvous key. Seed and the
// scratch options are deliberately excluded: they only drive the
// post-render filter stages, so seed-varied repeats of a walkthrough still
// share every cached pre-filter frame and belong on the same cache-warm
// worker. The camera path, geometry, frame count, and strip decomposition
// (pipelines × renderer scenario) all change which frames get rendered,
// so they are all part of the key.
func affinityKey(spec serve.JobSpec) uint64 {
	return fnv64a(fmt.Sprintf("%s|%d|%dx%d|%d|%s|%s|%s",
		spec.Mode, spec.Frames, spec.Width, spec.Height, spec.Pipelines,
		spec.Renderer, spec.Arrangement, spec.Camera))
}

// pick routes one job placement decision through the registry and records
// the affinity verdict in the gate metrics.
func (g *Gateway) pick(key uint64, excluded map[string]bool) *node {
	n, verdict := g.reg.pick(key, excluded, int64(g.cfg.AffinitySlack))
	switch verdict {
	case pickAffine:
		g.m.Inc(mAffinityRouted)
	case pickOverridden:
		g.m.Inc(mAffinityOverridden)
	}
	return n
}

// hasEligible reports whether any node is currently routable for the key
// (an eligibility probe only — no routing metrics recorded).
func (g *Gateway) hasEligible(key uint64, excluded map[string]bool) bool {
	n, _ := g.reg.pick(key, excluded, int64(g.cfg.AffinitySlack))
	return n != nil
}

func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JobSpec to /jobs", http.StatusMethodNotAllowed)
		return
	}
	if g.draining.Load() {
		g.reject(w, http.StatusServiceUnavailable, "draining", "gateway is draining")
		return
	}
	// The original body bytes are forwarded verbatim (so worker-side
	// semantics like "the client did not pin a pipeline count" survive
	// the hop); the decoded copy only feeds validation and the route key.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		g.reject(w, http.StatusBadRequest, "invalid", "bad job body: "+err.Error())
		return
	}
	var spec serve.JobSpec
	if len(body) > 0 {
		if err := json.Unmarshal(body, &spec); err != nil {
			g.reject(w, http.StatusBadRequest, "invalid", "bad job spec: "+err.Error())
			return
		}
	}
	spec.Normalize()
	// Stream-encoding negotiation is validated here (the gateway must be
	// able to decode every part it verifies) and forwarded to workers.
	encoding := r.Header.Get(serve.FrameEncodingHeader)
	switch encoding {
	case "", serve.FrameEncodingRaw, serve.FrameEncodingDelta:
	default:
		g.reject(w, http.StatusBadRequest, "invalid",
			fmt.Sprintf("unknown %s %q (want %s or %s)", serve.FrameEncodingHeader,
				encoding, serve.FrameEncodingRaw, serve.FrameEncodingDelta))
		return
	}
	g.inflight.Add(1)
	defer g.inflight.Done()
	g.m.Inc(mAccepted)
	if g.chaos != nil {
		// The fault epoch ticks per accepted job, so partition=HOST@E
		// rules activate at a deterministic point in the job sequence.
		g.chaos.Advance()
	}
	// The client's declared deadline drives queue shedding: a queued job
	// that can no longer finish in time is evicted, not served late.
	var deadline time.Time
	if spec.TimeoutMS > 0 {
		deadline = time.Now().Add(time.Duration(spec.TimeoutMS) * time.Millisecond)
	}
	if spec.Mode == serve.ModeSimulate {
		g.relayBuffered(r.Context(), w, body, affinityKey(spec), deadline)
		return
	}
	g.relayRender(r.Context(), w, body, spec, encoding, deadline)
}

// relay outcomes: how one forwarding attempt ended.
const (
	relayDone       = iota // summary delivered; job complete
	relayClientGone        // downstream client vanished or its ctx ended
	relayClientBad         // worker rejected the spec 4xx; relayed, final
	relayBusy              // worker full/draining; try another, no blame
	relayWorkerErr         // worker-caused failure; blame + failover
)

type relayResult struct {
	kind   int
	err    error
	status int // for relayClientBad/relayBusy: the worker's HTTP status
}

// merged unions two exclusion maps for pick.
func merged(a, b map[string]bool) map[string]bool {
	if len(b) == 0 {
		return a
	}
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// relayRender forwards a render job with mid-job failover. Frames
// already relayed are skipped on retry (the worker replays the job from
// frame zero; payloads are deterministic), so the client's stream is
// seamless across worker deaths — including delta-encoded streams: a
// failover replacement's replayed delta chain reproduces the exact
// payload bytes of the dead worker's, so the client's decode chain never
// notices the splice. When the whole fleet is busy the job waits in the
// gateway's bounded admission queue instead of bouncing; when every
// healthy worker has already failed this job once, the exclusion set
// wraps around (a transient network fault is no reason to give up while
// the retry budget lasts).
func (g *Gateway) relayRender(ctx context.Context, w http.ResponseWriter, body []byte, spec serve.JobSpec, encoding string, deadline time.Time) {
	key := affinityKey(spec)
	st := newRelayStream(w)
	failed := make(map[string]bool) // workers that faulted during this job
	busy := make(map[string]bool)   // workers that answered 429/503 this cycle
	lastSent := -1
	retries, sawBusy, queued := 0, false, false
	var started time.Time
	leaveQueue := func(reason string) {
		if queued {
			g.queueExit(reason)
			queued = false
		}
	}
	defer leaveQueue("")
	for {
		n := g.pick(key, merged(failed, busy))
		if n == nil {
			if len(failed) > 0 && retries <= g.retry.MaxRetries && g.hasEligible(key, busy) {
				// Every healthy non-busy worker already failed this job once;
				// wrap around and re-attempt them rather than failing the job.
				failed = make(map[string]bool)
				continue
			}
			if st.Started() {
				st.CloseWithError(errors.New("no healthy worker available to finish the job"))
				g.m.Inc(mFailed)
				return
			}
			if !sawBusy {
				g.reject(w, http.StatusServiceUnavailable, "no_workers", "no healthy worker available")
				return
			}
			if !queued {
				if !g.queueEnter() {
					g.rejectBusy(w, "queue_full", "every worker is at capacity and the gateway queue is full")
					return
				}
				queued = true
			}
			switch g.queueWait(ctx, deadline) {
			case waitClientGone:
				leaveQueue("client_gone")
				g.m.Inc(mClientGone)
				return
			case waitDeadline:
				leaveQueue("deadline")
				g.rejectBusy(w, "deadline", "the job's deadline cannot be met at current fleet load")
				return
			}
			// Capacity plausibly changed: busy verdicts are stale now.
			busy = make(map[string]bool)
			sawBusy = false
			continue
		}
		leaveQueue("")
		if started.IsZero() {
			started = time.Now()
		}
		n.live.Add(1)
		n.jobs.Add(1)
		g.m.Inc(workerJobsKey(n.name))
		res := g.streamFrom(ctx, n, body, spec, encoding, st, &lastSent, retries)
		n.live.Add(-1)
		g.capacityChanged()
		switch res.kind {
		case relayDone:
			g.m.Inc(mCompleted)
			g.svcTimes.Add(time.Since(started).Seconds())
			return
		case relayClientGone:
			// PR 4 rule, one level up: the client went away — says nothing
			// about the worker, so no blame and no retry.
			g.m.Inc(mClientGone)
			return
		case relayClientBad:
			g.m.Inc(mRejected + `{reason="worker_rejected"}`)
			return
		case relayBusy:
			sawBusy = true
			busy[n.name] = true
		case relayWorkerErr:
			failed[n.name] = true
			g.noteWorkerFailure(n, res.err.Error())
		}
		if res.kind == relayBusy {
			// Not an attempt against the retry budget: the worker refused
			// cleanly before doing any work.
			continue
		}
		retries++
		if retries > g.retry.MaxRetries {
			g.m.Inc(mFailed)
			err := fmt.Errorf("job failed after %d worker attempts: %v", retries, res.err)
			g.logf("%v", err)
			if st.Started() {
				st.CloseWithError(err)
			} else {
				http.Error(w, err.Error(), http.StatusBadGateway)
			}
			return
		}
		g.m.Inc(retryKey(n.name))
		g.retry.Notify(faults.Event{Kind: faults.EventRetry, Stage: n.name, Reason: res.err.Error()})
		g.logf("failover: worker %s failed mid-job (%v), retry %d/%d after %d frames",
			n.name, res.err, retries, g.retry.MaxRetries, lastSent+1)
		if !sleepCtx(ctx, g.retry.RetryBackoff(0, n.name, 0, retries)) {
			g.m.Inc(mClientGone)
			return
		}
	}
}

// streamTimeout is the adaptive per-attempt stall budget for a worker:
// 4× its observed p95 frame inter-arrival time, clamped into
// [StreamTimeoutMin, StreamTimeoutMax]. Until enough arrivals have been
// observed the full Max applies (generous, not absent), and a negative
// Max disables the watchdog entirely.
func (g *Gateway) streamTimeout(n *node) time.Duration {
	if g.cfg.StreamTimeoutMax < 0 {
		return 0
	}
	q := n.arrivals.Quantile(0.95, 8, -1)
	if q <= 0 {
		return g.cfg.StreamTimeoutMax
	}
	d := time.Duration(4 * q * float64(time.Second))
	if d < g.cfg.StreamTimeoutMin {
		d = g.cfg.StreamTimeoutMin
	}
	if d > g.cfg.StreamTimeoutMax {
		d = g.cfg.StreamTimeoutMax
	}
	return d
}

// streamFrom runs one forwarding attempt: POST the job to the node and
// relay its multipart stream, skipping frames at or below *lastSent.
// Every frame payload is read fully before being forwarded, so a worker
// dying mid-frame never emits a torn frame downstream; each payload is
// checked against its X-Frame-Digest, and per-attempt frame indices must
// be dense from zero — a wrong-indexed or corrupted frame is a worker
// fault, not something to pass downstream. A watchdog goroutine cancels
// the attempt when no progress lands within the node's adaptive stream
// timeout, so a slow-loris worker is dropped as decisively as a dead
// one. failovers is the number of prior attempts, folded into the
// summary for observability.
//
// Delta streams add one invariant: each part's digest covers the DECODED
// raw pixels, so the gateway keeps its own decode chain for the attempt
// and must decode EVERY delta part — including replayed ones the dedup
// logic discards — both to advance the chain and to verify that the bytes
// it relays reconstruct the right frame downstream. Payload bytes are
// still relayed verbatim; the decode is verification, not re-encoding.
func (g *Gateway) streamFrom(ctx context.Context, n *node, body []byte, spec serve.JobSpec, encoding string, st *relayStream, lastSent *int, failovers int) relayResult {
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stalled atomic.Bool
	var lastProgress atomic.Int64
	lastProgress.Store(time.Now().UnixNano())
	progress := func() { lastProgress.Store(time.Now().UnixNano()) }
	if timeout := g.streamTimeout(n); timeout > 0 {
		tick := timeout / 4
		if tick < 5*time.Millisecond {
			tick = 5 * time.Millisecond
		}
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-attemptCtx.Done():
					return
				case <-t.C:
					if time.Since(time.Unix(0, lastProgress.Load())) > timeout {
						stalled.Store(true)
						cancel()
						return
					}
				}
			}
		}()
	}
	fail := func(err error) relayResult {
		if ctx.Err() != nil {
			// The outer (client) context ended: no worker blame.
			return relayResult{kind: relayClientGone, err: ctx.Err()}
		}
		if stalled.Load() {
			g.m.Inc(stallKey(n.name))
			return relayResult{kind: relayWorkerErr,
				err: fmt.Errorf("worker %s stream stalled: no progress within the adaptive timeout", n.name)}
		}
		return relayResult{kind: relayWorkerErr, err: err}
	}
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, n.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return relayResult{kind: relayWorkerErr, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if encoding != "" {
		req.Header.Set(serve.FrameEncodingHeader, encoding)
	}
	resp, err := g.jobs.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return relayResult{kind: relayBusy, status: resp.StatusCode,
			err: fmt.Errorf("worker %s busy (status %d)", n.name, resp.StatusCode)}
	case resp.StatusCode >= 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return relayResult{kind: relayWorkerErr,
			err: fmt.Errorf("worker %s status %d: %s", n.name, resp.StatusCode, bytes.TrimSpace(msg))}
	case resp.StatusCode >= 400:
		// The worker judged the spec invalid. Before any output, relay the
		// verdict verbatim — it is the client's error, not the worker's.
		// Mid-stream (a retry after frames went out) it is incoherent:
		// the spec was accepted once, so treat it as a worker fault.
		if st.Started() {
			return relayResult{kind: relayWorkerErr,
				err: fmt.Errorf("worker %s rejected a previously-accepted spec with %d", n.name, resp.StatusCode)}
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		http.Error(st.w, string(bytes.TrimSpace(msg)), resp.StatusCode)
		return relayResult{kind: relayClientBad, status: resp.StatusCode}
	}
	mediatype, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || !strings.HasPrefix(mediatype, "multipart/") || params["boundary"] == "" {
		return fail(fmt.Errorf("worker %s sent unexpected content type %q", n.name, resp.Header.Get("Content-Type")))
	}
	progress()
	mr := multipart.NewReader(resp.Body, params["boundary"])
	attemptPrev := -1 // the worker must stream indices dense from zero
	var chain []byte  // this attempt's decoded delta chain state
	lastFrameAt := time.Now()
	for {
		part, err := mr.NextPart()
		if err != nil {
			// Includes io.EOF: a stream that ends before the summary part
			// means the worker died mid-job.
			return fail(fmt.Errorf("worker %s stream truncated: %v", n.name, err))
		}
		switch ct := part.Header.Get("Content-Type"); ct {
		case "image/png", serve.DeltaContentType:
			idx, aerr := strconv.Atoi(part.Header.Get("X-Frame-Index"))
			if aerr != nil {
				return fail(fmt.Errorf("worker %s sent a frame without an index: %v", n.name, aerr))
			}
			if idx != attemptPrev+1 {
				// Backwards or skipped indices mean the worker's stream is
				// corrupt; failing over is the only safe answer (the dedup
				// bookkeeping below relies on dense replay, and a delta
				// chain with a hole cannot be decoded at all).
				return fail(fmt.Errorf("worker %s sent frame index %d after %d (want %d)",
					n.name, idx, attemptPrev, attemptPrev+1))
			}
			attemptPrev = idx
			payload, rerr := io.ReadAll(part)
			if rerr != nil {
				return fail(fmt.Errorf("worker %s frame %d truncated: %v", n.name, idx, rerr))
			}
			if ct == serve.DeltaContentType {
				// The geometry headers must agree with the spec the gateway
				// admitted — they bound the decode allocation.
				pw, _ := strconv.Atoi(part.Header.Get(serve.FrameWidthHeader))
				ph, _ := strconv.Atoi(part.Header.Get(serve.FrameHeightHeader))
				if pw != spec.Width || ph != spec.Height {
					return fail(fmt.Errorf("worker %s frame %d geometry %dx%d disagrees with the spec's %dx%d",
						n.name, idx, pw, ph, spec.Width, spec.Height))
				}
				if chain == nil {
					chain = make([]byte, spec.Width*spec.Height*4)
				}
				raw, derr := codec.FrameDeltaDecode(chain, payload, pw, ph)
				if derr != nil {
					return fail(fmt.Errorf("worker %s frame %d delta undecodable: %v", n.name, idx, derr))
				}
				if want := part.Header.Get("X-Frame-Digest"); want != "" {
					if got := serve.FrameDigest(raw); got != want {
						return fail(fmt.Errorf("worker %s frame %d corrupt: decoded digest %s, header says %s",
							n.name, idx, got, want))
					}
				}
				chain = raw
			} else if want := part.Header.Get("X-Frame-Digest"); want != "" {
				if got := serve.FrameDigest(payload); got != want {
					return fail(fmt.Errorf("worker %s frame %d corrupt: digest %s, header says %s",
						n.name, idx, got, want))
				}
			}
			progress()
			now := time.Now()
			n.arrivals.Add(now.Sub(lastFrameAt).Seconds())
			lastFrameAt = now
			if idx <= *lastSent {
				// Replayed during failover; the client already has it (and
				// for delta parts the chain above has already absorbed it).
				g.m.Inc(mFramesDiscarded)
				continue
			}
			if werr := st.WriteFrame(idx, ct, part.Header, payload); werr != nil {
				return relayResult{kind: relayClientGone, err: werr}
			}
			*lastSent = idx
			g.m.Inc(mFramesRelayed)
		case "application/json":
			progress()
			raw, rerr := io.ReadAll(part)
			if rerr != nil {
				return fail(fmt.Errorf("worker %s summary truncated: %v", n.name, rerr))
			}
			var sum map[string]any
			if jerr := json.Unmarshal(raw, &sum); jerr != nil {
				return fail(fmt.Errorf("worker %s sent a bad summary: %v", n.name, jerr))
			}
			if errMsg, ok := sum["error"]; ok {
				// The worker's own run failed mid-stream; another worker can
				// still finish the job.
				return fail(fmt.Errorf("worker %s job error: %v", n.name, errMsg))
			}
			sum["worker"] = n.name
			if failovers > 0 {
				sum["failovers"] = failovers
			}
			if werr := st.CloseWithSummary(sum); werr != nil {
				return relayResult{kind: relayClientGone, err: werr}
			}
			return relayResult{kind: relayDone}
		default:
			io.Copy(io.Discard, part) // unknown part kind: skip
		}
	}
}

// relayBuffered forwards a simulate job: the response is small JSON, so
// failover is a plain buffered retry with no dedup concerns. Busy fleets
// queue and wrap-around retry work the same as for render jobs.
func (g *Gateway) relayBuffered(ctx context.Context, w http.ResponseWriter, body []byte, key uint64, deadline time.Time) {
	failed := make(map[string]bool)
	busy := make(map[string]bool)
	retries, sawBusy, queued := 0, false, false
	var started time.Time
	var lastErr error
	leaveQueue := func(reason string) {
		if queued {
			g.queueExit(reason)
			queued = false
		}
	}
	defer leaveQueue("")
	for {
		n := g.pick(key, merged(failed, busy))
		if n == nil {
			if len(failed) > 0 && retries <= g.retry.MaxRetries && g.hasEligible(key, busy) {
				failed = make(map[string]bool)
				continue
			}
			if !sawBusy {
				g.reject(w, http.StatusServiceUnavailable, "no_workers", "no healthy worker available")
				return
			}
			if !queued {
				if !g.queueEnter() {
					g.rejectBusy(w, "queue_full", "every worker is at capacity and the gateway queue is full")
					return
				}
				queued = true
			}
			switch g.queueWait(ctx, deadline) {
			case waitClientGone:
				leaveQueue("client_gone")
				g.m.Inc(mClientGone)
				return
			case waitDeadline:
				leaveQueue("deadline")
				g.rejectBusy(w, "deadline", "the job's deadline cannot be met at current fleet load")
				return
			}
			busy = make(map[string]bool)
			sawBusy = false
			continue
		}
		leaveQueue("")
		if started.IsZero() {
			started = time.Now()
		}
		n.live.Add(1)
		n.jobs.Add(1)
		g.m.Inc(workerJobsKey(n.name))
		kind, err := g.forwardOnce(ctx, n, body, w)
		n.live.Add(-1)
		g.capacityChanged()
		switch kind {
		case relayDone:
			g.m.Inc(mCompleted)
			g.svcTimes.Add(time.Since(started).Seconds())
			return
		case relayClientGone:
			g.m.Inc(mClientGone)
			return
		case relayClientBad:
			g.m.Inc(mRejected + `{reason="worker_rejected"}`)
			return
		case relayBusy:
			sawBusy = true
			busy[n.name] = true
			continue
		case relayWorkerErr:
			failed[n.name] = true
			g.noteWorkerFailure(n, err.Error())
		}
		lastErr = err
		retries++
		if retries > g.retry.MaxRetries {
			g.m.Inc(mFailed)
			http.Error(w, fmt.Sprintf("job failed after %d worker attempts: %v", retries, lastErr),
				http.StatusBadGateway)
			return
		}
		g.m.Inc(retryKey(n.name))
		g.retry.Notify(faults.Event{Kind: faults.EventRetry, Stage: n.name, Reason: err.Error()})
		if !sleepCtx(ctx, g.retry.RetryBackoff(0, n.name, 0, retries)) {
			g.m.Inc(mClientGone)
			return
		}
	}
}

// forwardOnce runs one buffered forwarding attempt.
func (g *Gateway) forwardOnce(ctx context.Context, n *node, body []byte, w http.ResponseWriter) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return relayWorkerErr, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.jobs.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return relayClientGone, ctx.Err()
		}
		return relayWorkerErr, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		if ctx.Err() != nil {
			return relayClientGone, ctx.Err()
		}
		return relayWorkerErr, fmt.Errorf("worker %s reply truncated: %v", n.name, err)
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return relayBusy, fmt.Errorf("worker %s busy (status %d)", n.name, resp.StatusCode)
	case resp.StatusCode >= 500:
		return relayWorkerErr, fmt.Errorf("worker %s status %d: %s", n.name, resp.StatusCode, bytes.TrimSpace(payload))
	case resp.StatusCode >= 400:
		http.Error(w, string(bytes.TrimSpace(payload)), resp.StatusCode)
		return relayClientBad, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if _, err := w.Write(payload); err != nil {
		return relayClientGone, err
	}
	return relayDone, nil
}

// sleepCtx sleeps d unless ctx ends first; reports whether it completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Version reports the gateway's own build identity (host.BuildVersion).
func Version() string { return host.BuildVersion() }
