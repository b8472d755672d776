package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"sccpipe/internal/host"
	"sccpipe/internal/stats"
)

// Metric names. Labeled counters append a `{label="value"}` suffix to the
// family name; stats.Counters stores the full string as an opaque key and
// the exposition writer groups keys back into families.
const (
	mAccepted  = "sccserve_jobs_accepted_total"
	mRejected  = "sccserve_jobs_rejected_total"
	mCompleted = "sccserve_jobs_completed_total"
	mFailed    = "sccserve_jobs_failed_total"
	mFrames    = "sccserve_frames_served_total"
	mQueue     = "sccserve_queue_depth"
	mInflight  = "sccserve_inflight_runs"
	mUptime    = "sccserve_uptime_seconds"
	mStageBusy = "sccserve_stage_busy_seconds_total"
	mJobBusy   = "sccserve_job_busy_seconds_total"

	// Robustness metrics: populated by chaos-mode supervision and the
	// circuit breaker.
	mRetries      = "sccserve_stage_retries_total"
	mPipeDeaths   = "sccserve_pipelines_died_total"
	mJobsDegraded = "sccserve_jobs_degraded_total"
	mBreakerState = "sccserve_breaker_state"
	mBreakerTrips = "sccserve_breaker_trips_total"
	mRetryBudget  = "sccserve_retry_budget"

	// Planner metrics: populated when Config.Plan is profile or online.
	mPlanReplans   = "sccserve_plan_replans_total"
	mPlanPipelines = "sccserve_plan_pipelines"
	mPlanStages    = "sccserve_plan_stages"
	mPlanDrift     = "sccserve_plan_drift"

	// Render-cache metrics (internal/rcache): snapshotted from the cache
	// at scrape time. Hits/misses count render calls served from / missed
	// by the cache; dedup counts single-flight waits (a racing identical
	// render shared in flight, never stored as the waiter's own miss).
	mCacheHits      = "sccserve_cache_hits_total"
	mCacheMisses    = "sccserve_cache_misses_total"
	mCacheEvictions = "sccserve_cache_evictions_total"
	mCacheDedup     = "sccserve_cache_dedup_total"
	mCacheBytes     = "sccserve_cache_bytes"
	mCacheEntries   = "sccserve_cache_entries"

	// Stream bandwidth: frame payload bytes put on the wire, split by
	// encoding, so a delta-vs-raw bandwidth cut is directly readable from
	// two counters.
	mStreamPNGBytes   = "sccserve_stream_png_bytes_total"
	mStreamDeltaBytes = "sccserve_stream_delta_bytes_total"

	// Tiled-rasterizer metrics: the renderer's work counters, summed over
	// every render call of every job (see render.Stats).
	mRenderTrisSetup    = "sccserve_render_tris_setup_total"
	mRenderTrisBinned   = "sccserve_render_tris_binned_total"
	mRenderTilesTouched = "sccserve_render_tiles_touched_total"
	mRenderBinsRejected = "sccserve_render_bins_rejected_total"
)

// stageBusyKey builds the labeled key for per-stage busy time. backend is
// "exec" (real runs, measured wall time) or "sim" (simulated runs, model
// time from the trace).
func stageBusyKey(backend, stage string) string {
	return mStageBusy + `{backend="` + backend + `",stage="` + stage + `"}`
}

// retryKey builds the labeled key for per-stage retry counts; a transfer
// retry is attributed to the stage whose hand-off failed.
func retryKey(stage string) string {
	return mRetries + `{stage="` + stage + `"}`
}

// metricFamilies fixes the exposition order and metadata.
var metricFamilies = []stats.Family{
	{Name: mAccepted, Kind: "counter", Help: "Jobs admitted past admission control."},
	{Name: mRejected, Kind: "counter", Help: "Jobs refused at admission, by reason.", Labeled: true},
	{Name: mCompleted, Kind: "counter", Help: "Jobs that finished successfully."},
	{Name: mFailed, Kind: "counter", Help: "Jobs that failed or timed out after admission."},
	{Name: mFrames, Kind: "counter", Help: "Frames streamed to clients."},
	{Name: mQueue, Kind: "gauge", Help: "Admitted jobs waiting for a pipeline slot."},
	{Name: mInflight, Kind: "gauge", Help: "Pipeline runs currently executing."},
	{Name: mUptime, Kind: "gauge", Help: "Seconds since the server started."},
	{Name: mStageBusy, Kind: "counter", Help: "Per-stage busy time by backend (exec wall time, sim model time).", Labeled: true},
	{Name: mJobBusy, Kind: "counter", Help: "Wall time spent running jobs (queue wait excluded)."},
	{Name: mRetries, Kind: "counter", Help: "Supervised stage/transfer retries, by stage.", Labeled: true},
	{Name: mPipeDeaths, Kind: "counter", Help: "Pipelines declared dead and re-partitioned."},
	{Name: mJobsDegraded, Kind: "counter", Help: "Jobs that completed degraded (survived dead pipelines)."},
	{Name: mBreakerState, Kind: "gauge", Help: "Circuit breaker state: 0 closed, 1 open, 2 half-open."},
	{Name: mBreakerTrips, Kind: "counter", Help: "Times the circuit breaker tripped open."},
	{Name: mRetryBudget, Kind: "gauge", Help: "Per-job retry budget of the active recovery policy."},
	{Name: mPlanReplans, Kind: "counter", Help: "Drift-triggered re-plans applied by the online planner."},
	{Name: mPlanPipelines, Kind: "gauge", Help: "Pipeline replication factor of the active stage plan.", Optional: true},
	{Name: mPlanStages, Kind: "gauge", Help: "Filter stage count (after fusion) of the active stage plan.", Optional: true},
	{Name: mPlanDrift, Kind: "gauge", Help: "Stage-balance drift measured when the last observation window closed.", Optional: true},
	{Name: mCacheHits, Kind: "counter", Help: "Render calls served from the content-addressed frame cache."},
	{Name: mCacheMisses, Kind: "counter", Help: "Render calls that rasterized (and populated the cache)."},
	{Name: mCacheEvictions, Kind: "counter", Help: "Cached frames evicted under the byte budget."},
	{Name: mCacheDedup, Kind: "counter", Help: "Render calls de-duplicated onto a racing identical render in flight."},
	{Name: mCacheBytes, Kind: "gauge", Help: "Pixel bytes currently held by the frame cache."},
	{Name: mCacheEntries, Kind: "gauge", Help: "Frames currently held by the frame cache."},
	{Name: mStreamPNGBytes, Kind: "counter", Help: "Frame payload bytes streamed as PNG parts."},
	{Name: mStreamDeltaBytes, Kind: "counter", Help: "Frame payload bytes streamed as temporal-delta parts."},
	{Name: mRenderTrisSetup, Kind: "counter", Help: "Screen triangles set up by the rasterizer (post clip/fan, tiled path)."},
	{Name: mRenderTrisBinned, Kind: "counter", Help: "Triangle-to-tile bin insertions performed by the tiled rasterizer."},
	{Name: mRenderTilesTouched, Kind: "counter", Help: "Row-tiles with at least one binned triangle."},
	{Name: mRenderBinsRejected, Kind: "counter", Help: "Bin entries skipped by the coarse per-tile depth test."},
}

// handleMetrics serves the Prometheus text exposition format (v0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	// Gauges are computed at scrape time. Waiting depth is the admitted
	// population minus the jobs holding run slots.
	queued := len(s.room) - len(s.slots)
	if queued < 0 {
		queued = 0
	}
	s.m.Set(mQueue, float64(queued))
	s.m.Set(mInflight, float64(len(s.slots)))
	s.m.Set(mUptime, time.Since(s.start).Seconds())
	s.m.Set(mBreakerState, float64(s.brk.State()))
	cst := s.cache.Stats() // nil-safe: a disabled cache reports zeros
	s.m.Set(mCacheHits, float64(cst.Hits))
	s.m.Set(mCacheMisses, float64(cst.Misses))
	s.m.Set(mCacheEvictions, float64(cst.Evictions))
	s.m.Set(mCacheDedup, float64(cst.Dedups))
	s.m.Set(mCacheBytes, float64(cst.Bytes))
	s.m.Set(mCacheEntries, float64(cst.Entries))
	s.m.Set(mRetryBudget, float64(s.cfg.Recovery.Normalize().MaxRetries))
	if s.planCtl != nil {
		p := s.planCtl.Current()
		s.m.Set(mPlanPipelines, float64(p.Pipelines))
		s.m.Set(mPlanStages, float64(len(p.Stages.Groups)))
		s.m.Set(mPlanDrift, s.planCtl.LastDrift())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	stats.WriteExposition(w, metricFamilies, s.m.Snapshot())
}

// LoadReport is the machine-readable /healthz body. Beyond liveness it
// carries the load signals the fleet gateway routes by (queue depth,
// in-flight runs, cumulative job busy time — successive polls difference
// into a recent busy rate) and the worker's build version, so a mixed
// fleet's skew is visible in the gateway's node table.
type LoadReport struct {
	// Status is "ok" or "draining". A draining worker is alive (it still
	// answers health checks and finishes in-flight jobs) but must not
	// receive new work.
	Status string `json:"status"`
	// Inflight counts pipeline runs currently executing; Queue counts
	// admitted jobs still waiting for a run slot; Admitted is their sum.
	Inflight int `json:"inflight"`
	Queue    int `json:"queue"`
	Admitted int `json:"admitted"`
	// Capacity is the concurrent-run limit (Config.Workers).
	Capacity int `json:"capacity"`
	// BusyS is cumulative wall-clock seconds spent running jobs since
	// start (queue wait excluded). Pollers derive a recent busy rate from
	// the delta between samples.
	BusyS   float64 `json:"busy_s"`
	UptimeS int64   `json:"uptime_s"`
	// Version identifies the worker's build (host.BuildVersion).
	Version string `json:"version"`
}

// handleHealthz reports liveness and drain state: 200 while serving, 503
// once draining (load balancers stop routing, in-flight work continues).
// The body is a LoadReport either way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	rep := s.Load()
	if rep.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(rep)
}

// Load snapshots the worker's current load report (the /healthz body).
func (s *Server) Load() LoadReport {
	admitted, inflight := len(s.room), len(s.slots)
	queue := admitted - inflight
	if queue < 0 {
		queue = 0
	}
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	return LoadReport{
		Status:   status,
		Inflight: inflight,
		Queue:    queue,
		Admitted: admitted,
		Capacity: s.cfg.Workers,
		BusyS:    s.m.Get(mJobBusy),
		UptimeS:  int64(time.Since(s.start).Seconds()),
		Version:  host.BuildVersion(),
	}
}
