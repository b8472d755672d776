// Package serve turns the macro-pipeline runtime into a network service:
// an HTTP server that accepts walkthrough jobs as JSON, runs them on the
// real goroutine backend (streaming the resulting frames back as a
// multipart PNG sequence) or on the simulated SCC (returning the SimResult
// summary), under admission control.
//
// The concurrency structure mirrors an inference server in front of a
// model runtime: a bounded waiting room admits at most Workers+QueueDepth
// jobs (beyond that, submissions are rejected immediately with 429 and a
// Retry-After hint rather than queueing unboundedly), a semaphore caps
// concurrent pipeline runs at Workers, every job runs under a deadline
// wired into context cancellation, and SIGTERM-style drain stops admission
// first and then lets in-flight jobs finish. Live counters are exported in
// Prometheus text format on /metrics.
//
// Endpoints:
//
//	POST /jobs     submit a job (JobSpec JSON); render jobs stream frames
//	GET  /healthz  liveness + drain state
//	GET  /metrics  Prometheus text exposition
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sccpipe/internal/band"
	"sccpipe/internal/core"
	"sccpipe/internal/faults"
	"sccpipe/internal/frame"
	"sccpipe/internal/plan"
	"sccpipe/internal/rcache"
	"sccpipe/internal/render"
	"sccpipe/internal/scene"
	"sccpipe/internal/stats"
)

// Config tunes a render server. The zero value serves with the defaults
// noted on each field.
type Config struct {
	// Workers caps concurrent pipeline runs (default 2).
	Workers int
	// QueueDepth is the waiting room beyond the running jobs: a submission
	// finding Workers+QueueDepth jobs already admitted is rejected with
	// 429. Default 8; negative disables the waiting room entirely (a job
	// is admitted only if a worker is free).
	QueueDepth int
	// DefaultTimeout bounds jobs that do not ask for a deadline (default
	// 60s); MaxTimeout clamps jobs that do (default 5m). Queue wait counts
	// against the deadline.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds how long ListenAndServe waits for in-flight jobs
	// after its context is cancelled (default 30s).
	DrainTimeout time.Duration
	// Limits bounds a single job's size; zero fields default to 2000
	// frames and 4096×4096 pixels.
	Limits Limits
	// Scene is the triangle soup jobs render; nil selects the paper's
	// procedural city.
	Scene []render.Triangle
	// Log receives one line per job outcome; nil disables logging.
	Log *log.Logger

	// CacheBytes bounds the content-addressed cache of rendered
	// (pre-filter) frames shared by every render job: on a hit the
	// renderer stage is replaced by a memcpy of the cached pixels and the
	// filter chain runs on the copy, byte-identical to a cold render. 0
	// selects the 256 MiB default; negative disables caching. See
	// internal/rcache.
	CacheBytes int64

	// StageWorkers sizes the shared band-parallel worker pool each render
	// job's stages (blur, the fused point pass, the rasterizer) split their
	// strips across: 0 uses the process-wide default pool (GOMAXPROCS
	// workers), 1 forces serial stages, and n > 1 builds a dedicated pool of
	// n workers shared by every job.
	StageWorkers int
	// TileRows fixes the row height of the tiled rasterizer's binning tiles
	// for render jobs; 0 lets each renderer size tiles from its strip
	// height and the band pool. Output pixels are identical for any value.
	TileRows int
	// NoFuse disables stage fusion for render jobs: each of the five
	// filters runs as its own pipeline stage (the paper-faithful layout)
	// instead of adjacent per-pixel stages sharing one pass over the strip.
	NoFuse bool

	// Plan selects how render jobs are mapped onto pipeline stages:
	// PlanStatic (the default) keeps the built-in maximal-fusion layout,
	// PlanProfile computes a cost-model plan once at startup from the
	// server's scene, and PlanOnline additionally re-plans while serving
	// when the observed per-stage busy balance drifts from the profile the
	// active plan was computed from. See internal/plan.
	Plan string
	// ReplanDrift overrides the online mode's re-plan hysteresis threshold
	// (relative busy-share deviation; default plan.DefaultDriftThreshold).
	ReplanDrift float64

	// Breaker configures the circuit breaker in front of admission; the
	// zero value disables it. See BreakerConfig.
	Breaker BreakerConfig
	// Chaos, when non-nil, injects the plan's faults into every render
	// job (each job gets its own deterministic injector built from the
	// plan), exercising recovery: retries, stall detection, and
	// pipeline-death re-partitioning show up in /metrics. Render jobs run
	// the same program either way; simulate jobs are unaffected.
	Chaos *faults.Plan
	// Recovery tunes the supervision of render jobs (retry budget,
	// backoff, stall watchdog). Nil uses faults.RecoveryPolicy defaults.
	Recovery *faults.RecoveryPolicy
}

// Plan modes (Config.Plan).
const (
	PlanStatic  = "static"
	PlanProfile = "profile"
	PlanOnline  = "online"
)

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Plan == "" {
		c.Plan = PlanStatic
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Limits.MaxFrames <= 0 {
		c.Limits.MaxFrames = 2000
	}
	if c.Limits.MaxPixels <= 0 {
		c.Limits.MaxPixels = 4096 * 4096
	}
}

// Server is the render service. Create one with New; it implements
// http.Handler, so it can be mounted directly or run via ListenAndServe.
type Server struct {
	cfg  Config
	tree *render.Octree
	mux  *http.ServeMux
	m    *stats.Counters

	// pool recycles frame buffers across every render job the server runs:
	// jobs with matching frame geometry reuse each other's buffers instead
	// of re-allocating per frame.
	pool *frame.Pool

	// bands is the band-parallel worker pool shared by every render job's
	// stages, sized by Config.StageWorkers.
	bands *band.Pool

	// cache holds rendered pre-filter frames shared across jobs (nil when
	// Config.CacheBytes is negative); sceneKey folds the scene geometry
	// into every cache key so swapping Config.Scene can never serve
	// another scene's pixels.
	cache    *rcache.Cache
	sceneKey uint64

	// planCtl holds the profile-driven stage plan when Config.Plan is
	// PlanProfile or PlanOnline; nil serves the static layout. planOnline
	// additionally feeds job observations back into the controller and
	// re-plans on drift.
	planCtl    *plan.Controller
	planOnline bool

	// room bounds total admitted jobs (running + waiting); slots bounds
	// running pipeline jobs. Both are counting semaphores.
	room  chan struct{}
	slots chan struct{}

	draining atomic.Bool
	jobs     sync.WaitGroup

	// brk guards admission after repeated job failures; hardStop, once
	// closed, cancels every in-flight job's context so a drain deadline
	// is a real deadline (a job stuck retrying cannot outlive SIGTERM).
	brk      *breaker
	hardStop chan struct{}
	hardOnce sync.Once

	// workload caches profiled walkthroughs for simulate jobs, keyed by
	// (frames, width, height); Workload's own caches are
	// concurrency-safe, so one entry may serve several jobs at once.
	wlMu sync.Mutex
	wls  map[[3]int]*core.Workload

	start time.Time

	// testHookRunning, when set, is called from a job's handler goroutine
	// once it holds a worker slot, before the pipeline starts. Tests use
	// it to hold jobs in flight deterministically.
	testHookRunning func(spec JobSpec)
}

// New builds a Server from cfg (zero value is serviceable) and constructs
// the scene octree once, shared by every job.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	tris := cfg.Scene
	if tris == nil {
		tris = scene.City(scene.DefaultConfig())
	}
	s := &Server{
		cfg:      cfg,
		tree:     render.BuildOctree(tris),
		m:        stats.NewCounters(),
		cache:    rcache.New(cfg.CacheBytes),
		sceneKey: rcache.SceneKey(tris),
		pool:     frame.NewPool(),
		bands:    core.BandPool(cfg.StageWorkers),
		room:     make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		slots:    make(chan struct{}, cfg.Workers),
		wls:      make(map[[3]int]*core.Workload),
		start:    time.Now(),
		hardStop: make(chan struct{}),
	}
	s.brk = newBreaker(cfg.Breaker, func() { s.m.Inc(mBreakerTrips) })
	s.initPlanner()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// planShape is the workload shape the planner's modeled profile is built
// from: the default job geometry (a plan is a stage balance, and the
// balance is dominated by the per-pixel stage ratios, which are
// shape-stable across job sizes).
const (
	planShapeFrames = 8
	planShapeW      = 320
	planShapeH      = 240
)

// initPlanner builds the plan controller for PlanProfile/PlanOnline; any
// failure (or an unknown mode) logs and falls back to the static layout so
// a misconfigured planner never takes the server down.
func (s *Server) initPlanner() {
	switch s.cfg.Plan {
	case PlanStatic:
		return
	case PlanProfile, PlanOnline:
	default:
		s.logf("plan: unknown mode %q, serving static", s.cfg.Plan)
		return
	}
	wl := core.BuildWorkload(s.tree, planShapeFrames, planShapeW, planShapeH)
	shape := plan.ModelProfile(core.DefaultCostModel(), wl)
	ctl, err := plan.NewController(shape, plan.Config{
		Renderer: core.OneRenderer,
		Height:   planShapeH,
		Workers:  s.cfg.StageWorkers,
	})
	if err != nil {
		s.logf("plan: %v, serving static", err)
		return
	}
	if s.cfg.ReplanDrift > 0 {
		ctl.DriftThreshold = s.cfg.ReplanDrift
	}
	s.planCtl = ctl
	s.planOnline = s.cfg.Plan == PlanOnline
	s.logf("plan: %s mode, initial plan %s", s.cfg.Plan, ctl.Current())
}

// ServeHTTP dispatches to the service endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain stops admission: subsequent submissions are rejected with 503
// and /healthz reports draining. In-flight jobs are unaffected.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether admission is closed.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain blocks until every admitted job has finished or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() { s.jobs.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// ListenAndServe serves on addr until ctx is cancelled, then drains:
// admission closes, in-flight jobs (and their streaming responses) run to
// completion bounded by Config.DrainTimeout, and the listener shuts down.
// If the window expires with jobs still running — e.g. a job stuck in an
// injected retry/backoff loop — every in-flight job's context is
// cancelled (HardStop) so the drain deadline stays a real deadline.
// ready, if non-nil, is called with the bound address before serving —
// callers using ":0" learn the port this way. The return value is nil
// after a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return ServeAndDrain(ctx, ln, s, s.cfg.DrainTimeout, s.BeginDrain, s.HardStop)
}

// Slow-client limits of every server ServeAndDrain runs: a client gets
// readHeaderTimeout to send a request's header, and a keep-alive
// connection may sit idle between requests for idleTimeout. There is no
// write timeout, because a job's response streams for the whole job.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// ServeAndDrain serves h on ln until ctx is cancelled, then drains: it
// calls beginDrain, lets in-flight requests finish within drainTimeout,
// and shuts the listener down. If the window expires with requests still
// running, it calls hardStop (when non-nil) and gives the handlers five
// more seconds to unwind before severing whatever is left. It returns the
// error that stopped Serve, the drain window's expiry, or nil after a
// clean drain. Both the render service and the fleet gateway serve
// through it.
func ServeAndDrain(ctx context.Context, ln net.Listener, h http.Handler, drainTimeout time.Duration, beginDrain, hardStop func()) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	beginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx) // waits for in-flight requests
	if err != nil {
		severed := true
		if hardStop != nil {
			hardStop()
			hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer hcancel()
			severed = hs.Shutdown(hctx) != nil
		}
		if severed {
			hs.Close() // sever whatever is left mid-stream
		}
	}
	<-errc // Serve has returned ErrServerClosed
	return err
}

// HardStop cancels the context of every in-flight job (idempotent). It is
// the escalation ListenAndServe applies when the graceful drain window
// expires; exported so embedders driving Drain themselves can do the same.
func (s *Server) HardStop() {
	s.hardOnce.Do(func() { close(s.hardStop) })
}

// logf logs one line if logging is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// reject records a refused submission and writes the error response.
func (s *Server) reject(w http.ResponseWriter, status int, reason, msg string) {
	s.m.Inc(mRejected + `{reason="` + reason + `"}`)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, status)
}

// failStatus maps a job error onto an HTTP status for the pre-stream path.
func failStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errStream marks a response-stream write failure: the client went away
// (or its connection broke) mid-stream. See clientCaused.
var errStream = errors.New("streaming failed")

// clientCaused reports whether a failed job says nothing about backend
// health: its context was cancelled from outside the run (client
// disconnect, client-chosen deadline, drain hard-stop) or the response
// stream broke because nobody was reading it. Such outcomes must not
// feed the circuit breaker — a few misbehaving or impatient clients in
// a row would otherwise trip it and block all traffic for a cooldown.
func clientCaused(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, errStream)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JobSpec to /jobs", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&spec); err != nil && err != io.EOF {
		s.reject(w, http.StatusBadRequest, "invalid", "bad job spec: "+err.Error())
		return
	}
	spec.Normalize()
	if err := spec.Validate(s.cfg.Limits); err != nil {
		s.reject(w, http.StatusBadRequest, "invalid", "bad job spec: "+err.Error())
		return
	}
	// Stream-encoding negotiation: clients opting into temporal delta
	// frames declare it up front via request header (the parts are typed,
	// so a client that asked knows how to decode what it gets back).
	encoding := r.Header.Get(FrameEncodingHeader)
	switch encoding {
	case "", FrameEncodingRaw, FrameEncodingDelta:
	default:
		s.reject(w, http.StatusBadRequest, "invalid",
			fmt.Sprintf("unknown %s %q (want %q or %q)", FrameEncodingHeader, encoding, FrameEncodingRaw, FrameEncodingDelta))
		return
	}
	admit, probe := s.brk.Allow()
	if !admit {
		s.reject(w, http.StatusServiceUnavailable, "breaker_open",
			"circuit breaker open: recent jobs failed, retry after cooldown")
		return
	}

	// Admission: claim a place in the bounded waiting room or refuse now.
	// A job abandoned anywhere between Allow and the breaker outcome below
	// must release the half-open probe it may hold, or the breaker would
	// stay half-open (rejecting everything) with no probe left to close it.
	select {
	case s.room <- struct{}{}:
	default:
		s.brk.Release(probe)
		s.reject(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("queue full (%d jobs admitted)", cap(s.room)))
		return
	}
	s.jobs.Add(1)
	defer s.jobs.Done()
	defer func() { <-s.room }()
	s.m.Inc(mAccepted)

	ctx, cancel := context.WithTimeout(r.Context(), spec.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
	defer cancel()
	// A hard stop (drain deadline expired) cancels in-flight jobs — a job
	// stuck in a retry/backoff loop must not outlive SIGTERM. The watcher
	// exits with the job via ctx.Done.
	go func() {
		select {
		case <-s.hardStop:
			cancel()
		case <-ctx.Done():
		}
	}()

	// Wait for a pipeline slot; the deadline keeps queue waits bounded.
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.brk.Release(probe)
		s.m.Inc(mFailed)
		s.logf("job %s timed out in queue: %v", spec.Mode, ctx.Err())
		http.Error(w, "timed out waiting for a worker: "+ctx.Err().Error(), failStatus(ctx.Err()))
		return
	}
	defer func() { <-s.slots }()
	if s.testHookRunning != nil {
		s.testHookRunning(spec)
	}

	start := time.Now()
	var err error
	switch spec.Mode {
	case ModeSimulate:
		err = s.runSimulate(ctx, w, spec)
	default:
		err = s.runRender(ctx, w, spec, encoding == FrameEncodingDelta)
	}
	// Cumulative run time feeds the /healthz load report: the fleet
	// gateway differences successive polls into a recent busy rate.
	s.m.Add(mJobBusy, time.Since(start).Seconds())
	switch {
	case err == nil:
		s.brk.Record(true)
	case clientCaused(ctx, err):
		// Not a backend failure; hand back the probe (if held) unrecorded.
		s.brk.Release(probe)
	default:
		s.brk.Record(false)
	}
	if err != nil {
		s.m.Inc(mFailed)
		s.logf("job %s failed after %v: %v", spec.Mode, time.Since(start).Round(time.Millisecond), err)
		return
	}
	s.m.Inc(mCompleted)
	s.logf("job %s ok in %v", spec.Mode, time.Since(start).Round(time.Millisecond))
}

// runRender executes a render job, streaming frames as the transfer stage
// emits them. The response is committed lazily at the first frame, so
// failures before any output still produce a proper HTTP status.
func (s *Server) runRender(ctx context.Context, w http.ResponseWriter, spec JobSpec, delta bool) error {
	es, err := spec.execSpec()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return err
	}
	es.Pool = s.pool
	es.Bands = s.bands
	es.NoFuse = s.cfg.NoFuse
	es.TileRows = s.cfg.TileRows
	es.FrameCache = s.cache
	es.SceneKey = s.sceneKey
	var planned string
	if s.planCtl != nil {
		p := s.planCtl.Current()
		// The plan is computed for the default (unoriented) filter chain; a
		// job that turns on oriented scratches may make a fused group
		// illegal, in which case it runs the static layout instead.
		if st := p.Stages; st.Validate(es.OrientedScratches) == nil {
			p.ApplyExec(&es, spec.pipelinesDefaulted)
			planned = p.String()
		}
	}
	online := s.planOnline
	es.Observer = core.ExecObserver{
		OnStageBusy: func(kind core.StageKind, _ int, busy time.Duration) {
			s.m.Add(stageBusyKey("exec", kind.String()), busy.Seconds())
			if online {
				s.planCtl.Observe(kind, busy)
			}
		},
		OnRenderStats: func(_ int, rst render.Stats) {
			s.m.Add(mRenderTrisSetup, float64(rst.TrisSetup))
			s.m.Add(mRenderTrisBinned, float64(rst.TrisBinned))
			s.m.Add(mRenderTilesTouched, float64(rst.TilesTouched))
			s.m.Add(mRenderBinsRejected, float64(rst.BinsRejected))
			if online {
				s.planCtl.ObserveRender(rst)
			}
		},
	}
	if online {
		es.Observer.OnFrame = func(int) { s.planCtl.FrameDone() }
	}
	if s.cfg.Chaos != nil || s.cfg.Recovery != nil {
		if s.cfg.Chaos != nil {
			inj, err := faults.NewInjector(*s.cfg.Chaos)
			if err != nil {
				http.Error(w, "bad chaos plan: "+err.Error(), http.StatusInternalServerError)
				return err
			}
			es.Faults = inj
		}
		pol := s.cfg.Recovery.Normalize()
		pol.OnEvent = func(e faults.Event) {
			switch e.Kind {
			case faults.EventRetry:
				s.m.Inc(retryKey(e.Stage))
			case faults.EventDeath:
				s.m.Inc(mPipeDeaths)
			}
		}
		es.Recovery = &pol
	}
	cams, err := spec.cameras(s.tree.Bounds())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return err
	}

	// A stream write failure cancels the run: there is no reader left.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := newFrameStream(w, delta)
	sink := func(f int, img *frame.Image) {
		if st.Err() != nil {
			return
		}
		if err := st.WriteFrame(f, img); err != nil {
			cancel()
			return
		}
		s.m.Inc(mFrames)
	}
	res, runErr := core.ExecContext(ctx, es, s.tree, cams, sink)
	if delta {
		s.m.Add(mStreamDeltaBytes, float64(st.PayloadBytes()))
	} else {
		s.m.Add(mStreamPNGBytes, float64(st.PayloadBytes()))
	}
	if online {
		// The window just absorbed this job's observations (even a failed
		// run's); close it if it is full and re-plan on drift.
		if _, changed := s.planCtl.MaybeReplan(); changed {
			s.m.Inc(mPlanReplans)
			s.logf("plan: replanned to %s (drift %.2f)", s.planCtl.Current(), s.planCtl.LastDrift())
		}
	}
	if werr := st.Err(); werr != nil {
		runErr = fmt.Errorf("serve: %w: %v", errStream, werr)
	}
	if runErr != nil {
		if !st.Started() {
			http.Error(w, runErr.Error(), failStatus(runErr))
			return runErr
		}
		st.CloseWithError(runErr)
		return runErr
	}
	summary := renderSummary{
		Frames:    res.Frames,
		ElapsedMS: res.Elapsed.Milliseconds(),
		Plan:      planned,
	}
	if res.Degraded.IsDegraded() {
		s.m.Inc(mJobsDegraded)
		summary.Degraded = res.Degraded.String()
		s.logf("job %s degraded: %v", spec.Mode, res.Degraded)
	}
	return st.CloseWithSummary(summary)
}

// renderSummary is the trailing JSON part of a successful frame stream.
type renderSummary struct {
	Frames    int   `json:"frames"`
	ElapsedMS int64 `json:"elapsed_ms"`
	// Degraded describes a run that recovered from injected faults by
	// re-partitioning a dead pipeline's work; empty for clean runs.
	Degraded string `json:"degraded,omitempty"`
	// Plan is the profile-driven stage plan the job ran under (e.g.
	// "k=4 [sepia][blur][scratch+flicker+swap]"); empty when the server
	// serves the static layout.
	Plan string `json:"plan,omitempty"`
}

// simResponse is the JSON body of a completed simulate job.
type simResponse struct {
	Seconds          float64 `json:"seconds"`
	SCCEnergyJ       float64 `json:"scc_energy_j"`
	HostExtraEnergyJ float64 `json:"host_extra_energy_j"`
	// FramePeriodS is the steady-state seconds between frame completions;
	// present only when the job requested a trace.
	FramePeriodS float64 `json:"frame_period_s,omitempty"`
}

// runSimulate executes a simulate job and replies with JSON. The
// discrete-event run itself is not interruptible, so the deadline is
// enforced at the workload-build boundary and before the reply; keep
// simulated walkthroughs within the admission limits.
func (s *Server) runSimulate(ctx context.Context, w http.ResponseWriter, spec JobSpec) error {
	sim, err := spec.simSpec()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return err
	}
	wl := s.workload(spec.Frames, spec.Width, spec.Height)
	if err := ctx.Err(); err != nil {
		http.Error(w, "deadline passed before simulation started: "+err.Error(), failStatus(err))
		return err
	}
	res, err := core.Simulate(sim, wl, core.SimOptions{Trace: spec.Trace})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return err
	}
	resp := simResponse{
		Seconds:          res.Seconds,
		SCCEnergyJ:       res.SCCEnergyJ,
		HostExtraEnergyJ: res.HostExtraEnergyJ,
	}
	if spec.Trace && res.Trace != nil {
		resp.FramePeriodS = res.Trace.Throughput()
		for kind, pt := range res.Trace.TotalsByKind() {
			s.m.Add(stageBusyKey("sim", kind), pt.Busy())
		}
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(resp)
}

// workload returns the cached profiled walkthrough for a job shape,
// building it on first use. Workload's internal caches are themselves
// concurrency-safe, so the entry is shared across concurrent jobs.
func (s *Server) workload(frames, w, h int) *core.Workload {
	key := [3]int{frames, w, h}
	s.wlMu.Lock()
	defer s.wlMu.Unlock()
	if wl, ok := s.wls[key]; ok {
		return wl
	}
	wl := core.BuildWorkload(s.tree, frames, w, h)
	s.wls[key] = wl
	return wl
}
