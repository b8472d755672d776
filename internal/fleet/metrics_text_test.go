package fleet

import (
	"net/http/httptest"
	"regexp"
	"testing"
	"time"
)

// uptimeSample matches the uptime gauge's sample, the one value in the
// exposition that depends on wall time.
var uptimeSample = regexp.MustCompile(`(?m)^(sccgate_uptime_seconds) \S+$`)

// TestGatewayMetricsExpositionText pins the gateway's own /metrics
// section byte for byte for a fixed counter set (uptime's value aside):
// family order, HELP/TYPE lines, explicit zeros for untouched plain
// families, empty labeled families, and value formatting. The gateway has
// no workers, so the fleet-wide aggregation section is empty.
func TestGatewayMetricsExpositionText(t *testing.T) {
	g, err := New(Config{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	g.m.Add(mAccepted, 2)
	g.m.Inc(mRejected + `{reason="draining"}`)
	g.m.Inc(workerJobsKey("w1:1"))
	g.m.Add(mFramesRelayed, 17)
	rec := httptest.NewRecorder()
	g.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := uptimeSample.ReplaceAllString(rec.Body.String(), "$1 UPTIME")
	if got != wantGatewayExposition {
		t.Fatalf("exposition text changed:\n%s\nwant:\n%s", got, wantGatewayExposition)
	}
}

const wantGatewayExposition = `# HELP sccgate_jobs_accepted_total Jobs accepted for routing.
# TYPE sccgate_jobs_accepted_total counter
sccgate_jobs_accepted_total 2
# HELP sccgate_jobs_completed_total Jobs whose full stream was relayed to the client.
# TYPE sccgate_jobs_completed_total counter
sccgate_jobs_completed_total 0
# HELP sccgate_jobs_failed_total Jobs that failed after exhausting the failover budget.
# TYPE sccgate_jobs_failed_total counter
sccgate_jobs_failed_total 0
# HELP sccgate_jobs_rejected_total Jobs refused (draining, no workers, fleet busy, invalid), by reason.
# TYPE sccgate_jobs_rejected_total counter
sccgate_jobs_rejected_total{reason="draining"} 1
# HELP sccgate_jobs_client_gone_total Jobs abandoned because the client went away; never blamed on a worker.
# TYPE sccgate_jobs_client_gone_total counter
sccgate_jobs_client_gone_total 0
# HELP sccgate_worker_jobs_total Jobs routed, by worker (retries of one job count per worker tried).
# TYPE sccgate_worker_jobs_total counter
sccgate_worker_jobs_total{worker="w1:1"} 1
# HELP sccgate_job_retries_total Job failovers, labeled by the worker that failed.
# TYPE sccgate_job_retries_total counter
# HELP sccgate_worker_deaths_total Workers declared dead after consecutive failures, by worker.
# TYPE sccgate_worker_deaths_total counter
# HELP sccgate_frames_relayed_total Frame parts relayed to clients.
# TYPE sccgate_frames_relayed_total counter
sccgate_frames_relayed_total 17
# HELP sccgate_frames_discarded_total Duplicate frame parts discarded during failover replays.
# TYPE sccgate_frames_discarded_total counter
sccgate_frames_discarded_total 0
# HELP sccgate_health_checks_total Health probes, by result.
# TYPE sccgate_health_checks_total counter
# HELP sccgate_workers Registered workers, by state.
# TYPE sccgate_workers gauge
# HELP sccgate_uptime_seconds Seconds since the gateway started.
# TYPE sccgate_uptime_seconds gauge
sccgate_uptime_seconds UPTIME
# HELP sccgate_jobs_queued_total Jobs that waited in the gateway admission queue.
# TYPE sccgate_jobs_queued_total counter
sccgate_jobs_queued_total 0
# HELP sccgate_queue_depth Jobs currently parked in the admission queue.
# TYPE sccgate_queue_depth gauge
sccgate_queue_depth 0
# HELP sccgate_queue_evicted_total Queued jobs shed before reaching a worker, by reason.
# TYPE sccgate_queue_evicted_total counter
# HELP sccgate_worker_registrations_total Dynamic worker registrations, by kind (new, renew).
# TYPE sccgate_worker_registrations_total counter
# HELP sccgate_worker_leases_expired_total Dynamic workers evicted because their lease lapsed.
# TYPE sccgate_worker_leases_expired_total counter
sccgate_worker_leases_expired_total 0
# HELP sccgate_workers_forgotten_total Dead dynamic workers removed from the registry entirely.
# TYPE sccgate_workers_forgotten_total counter
sccgate_workers_forgotten_total 0
# HELP sccgate_stream_stalls_total Stream attempts cancelled by the adaptive stall watchdog, by worker.
# TYPE sccgate_stream_stalls_total counter
# HELP sccgate_affinity_routed_total Jobs routed to the rendezvous-preferred worker for cache affinity.
# TYPE sccgate_affinity_routed_total counter
sccgate_affinity_routed_total 0
# HELP sccgate_affinity_overridden_total Jobs steered away from the affine worker because its load exceeded the slack.
# TYPE sccgate_affinity_overridden_total counter
sccgate_affinity_overridden_total 0
`
