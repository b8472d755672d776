package serve

import (
	"net/http/httptest"
	"regexp"
	"testing"
)

// uptimeSample matches the uptime gauge's sample, the one value in the
// exposition that depends on wall time.
var uptimeSample = regexp.MustCompile(`(?m)^(sccserve_uptime_seconds) \S+$`)

// TestMetricsExpositionText pins the /metrics text byte for byte for a
// fixed counter set (uptime's value aside): family order, HELP/TYPE lines,
// explicit zeros for untouched plain families, empty labeled families,
// omitted optional gauges, and value formatting. Scrapers (perfbench,
// the fleet gateway's aggregation) parse this text.
func TestMetricsExpositionText(t *testing.T) {
	s := New(Config{Workers: 1})
	s.m.Add(mAccepted, 3)
	s.m.Inc(mCompleted)
	s.m.Inc(mRejected + `{reason="queue_full"}`)
	s.m.Add(stageBusyKey("exec", "blur"), 0.25)
	s.m.Add(stageBusyKey("exec", "render"), 1e-7)
	s.m.Add(mJobBusy, 1.5)
	s.m.Add(mStreamPNGBytes, 123456789)
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := uptimeSample.ReplaceAllString(rec.Body.String(), "$1 UPTIME")
	if got != wantExposition {
		t.Fatalf("exposition text changed:\n%s\nwant:\n%s", got, wantExposition)
	}
}

const wantExposition = `# HELP sccserve_jobs_accepted_total Jobs admitted past admission control.
# TYPE sccserve_jobs_accepted_total counter
sccserve_jobs_accepted_total 3
# HELP sccserve_jobs_rejected_total Jobs refused at admission, by reason.
# TYPE sccserve_jobs_rejected_total counter
sccserve_jobs_rejected_total{reason="queue_full"} 1
# HELP sccserve_jobs_completed_total Jobs that finished successfully.
# TYPE sccserve_jobs_completed_total counter
sccserve_jobs_completed_total 1
# HELP sccserve_jobs_failed_total Jobs that failed or timed out after admission.
# TYPE sccserve_jobs_failed_total counter
sccserve_jobs_failed_total 0
# HELP sccserve_frames_served_total Frames streamed to clients.
# TYPE sccserve_frames_served_total counter
sccserve_frames_served_total 0
# HELP sccserve_queue_depth Admitted jobs waiting for a pipeline slot.
# TYPE sccserve_queue_depth gauge
sccserve_queue_depth 0
# HELP sccserve_inflight_runs Pipeline runs currently executing.
# TYPE sccserve_inflight_runs gauge
sccserve_inflight_runs 0
# HELP sccserve_uptime_seconds Seconds since the server started.
# TYPE sccserve_uptime_seconds gauge
sccserve_uptime_seconds UPTIME
# HELP sccserve_stage_busy_seconds_total Per-stage busy time by backend (exec wall time, sim model time).
# TYPE sccserve_stage_busy_seconds_total counter
sccserve_stage_busy_seconds_total{backend="exec",stage="blur"} 0.25
sccserve_stage_busy_seconds_total{backend="exec",stage="render"} 1e-07
# HELP sccserve_job_busy_seconds_total Wall time spent running jobs (queue wait excluded).
# TYPE sccserve_job_busy_seconds_total counter
sccserve_job_busy_seconds_total 1.5
# HELP sccserve_stage_retries_total Supervised stage/transfer retries, by stage.
# TYPE sccserve_stage_retries_total counter
# HELP sccserve_pipelines_died_total Pipelines declared dead and re-partitioned.
# TYPE sccserve_pipelines_died_total counter
sccserve_pipelines_died_total 0
# HELP sccserve_jobs_degraded_total Jobs that completed degraded (survived dead pipelines).
# TYPE sccserve_jobs_degraded_total counter
sccserve_jobs_degraded_total 0
# HELP sccserve_breaker_state Circuit breaker state: 0 closed, 1 open, 2 half-open.
# TYPE sccserve_breaker_state gauge
sccserve_breaker_state 0
# HELP sccserve_breaker_trips_total Times the circuit breaker tripped open.
# TYPE sccserve_breaker_trips_total counter
sccserve_breaker_trips_total 0
# HELP sccserve_retry_budget Per-job retry budget of the active recovery policy.
# TYPE sccserve_retry_budget gauge
sccserve_retry_budget 3
# HELP sccserve_plan_replans_total Drift-triggered re-plans applied by the online planner.
# TYPE sccserve_plan_replans_total counter
sccserve_plan_replans_total 0
# HELP sccserve_cache_hits_total Render calls served from the content-addressed frame cache.
# TYPE sccserve_cache_hits_total counter
sccserve_cache_hits_total 0
# HELP sccserve_cache_misses_total Render calls that rasterized (and populated the cache).
# TYPE sccserve_cache_misses_total counter
sccserve_cache_misses_total 0
# HELP sccserve_cache_evictions_total Cached frames evicted under the byte budget.
# TYPE sccserve_cache_evictions_total counter
sccserve_cache_evictions_total 0
# HELP sccserve_cache_dedup_total Render calls de-duplicated onto a racing identical render in flight.
# TYPE sccserve_cache_dedup_total counter
sccserve_cache_dedup_total 0
# HELP sccserve_cache_bytes Pixel bytes currently held by the frame cache.
# TYPE sccserve_cache_bytes gauge
sccserve_cache_bytes 0
# HELP sccserve_cache_entries Frames currently held by the frame cache.
# TYPE sccserve_cache_entries gauge
sccserve_cache_entries 0
# HELP sccserve_stream_png_bytes_total Frame payload bytes streamed as PNG parts.
# TYPE sccserve_stream_png_bytes_total counter
sccserve_stream_png_bytes_total 123456789
# HELP sccserve_stream_delta_bytes_total Frame payload bytes streamed as temporal-delta parts.
# TYPE sccserve_stream_delta_bytes_total counter
sccserve_stream_delta_bytes_total 0
# HELP sccserve_render_tris_setup_total Screen triangles set up by the rasterizer (post clip/fan, tiled path).
# TYPE sccserve_render_tris_setup_total counter
sccserve_render_tris_setup_total 0
# HELP sccserve_render_tris_binned_total Triangle-to-tile bin insertions performed by the tiled rasterizer.
# TYPE sccserve_render_tris_binned_total counter
sccserve_render_tris_binned_total 0
# HELP sccserve_render_tiles_touched_total Row-tiles with at least one binned triangle.
# TYPE sccserve_render_tiles_touched_total counter
sccserve_render_tiles_touched_total 0
# HELP sccserve_render_bins_rejected_total Bin entries skipped by the coarse per-tile depth test.
# TYPE sccserve_render_bins_rejected_total counter
sccserve_render_bins_rejected_total 0
`
