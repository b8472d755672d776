package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"sccpipe/internal/host"
	"sccpipe/internal/stats"
)

// Gateway metric names (sccgate_*). Labeled counters append a
// `{label="value"}` suffix; stats.Counters stores the full string.
const (
	mAccepted        = "sccgate_jobs_accepted_total"
	mCompleted       = "sccgate_jobs_completed_total"
	mFailed          = "sccgate_jobs_failed_total"
	mRejected        = "sccgate_jobs_rejected_total"
	mClientGone      = "sccgate_jobs_client_gone_total"
	mWorkerJobs      = "sccgate_worker_jobs_total"
	mRetries         = "sccgate_job_retries_total"
	mWorkerDeaths    = "sccgate_worker_deaths_total"
	mFramesRelayed   = "sccgate_frames_relayed_total"
	mFramesDiscarded = "sccgate_frames_discarded_total"
	mHealthChecks    = "sccgate_health_checks_total"
	mWorkers         = "sccgate_workers"
	mUptime          = "sccgate_uptime_seconds"
	mQueued          = "sccgate_jobs_queued_total"
	mQueueDepth      = "sccgate_queue_depth"
	mQueueEvict      = "sccgate_queue_evicted_total"
	mRegistered      = "sccgate_worker_registrations_total"
	mLeaseExpired    = "sccgate_worker_leases_expired_total"
	mForgotten       = "sccgate_workers_forgotten_total"
	mStreamStalls    = "sccgate_stream_stalls_total"

	// Spec-affinity routing: how often the rendezvous-preferred (cache
	// warm) worker actually won, versus being overridden by load.
	mAffinityRouted     = "sccgate_affinity_routed_total"
	mAffinityOverridden = "sccgate_affinity_overridden_total"
)

func workerJobsKey(worker string) string { return stats.InjectLabel(mWorkerJobs, "worker", worker) }
func retryKey(worker string) string      { return stats.InjectLabel(mRetries, "worker", worker) }
func deathKey(worker string) string      { return stats.InjectLabel(mWorkerDeaths, "worker", worker) }
func healthKey(result string) string     { return stats.InjectLabel(mHealthChecks, "result", result) }
func evictKey(reason string) string      { return stats.InjectLabel(mQueueEvict, "reason", reason) }
func registerKey(kind string) string     { return stats.InjectLabel(mRegistered, "kind", kind) }
func stallKey(worker string) string      { return stats.InjectLabel(mStreamStalls, "worker", worker) }

// gateFamilies fixes the gateway section's exposition order and metadata.
var gateFamilies = []stats.Family{
	{Name: mAccepted, Kind: "counter", Help: "Jobs accepted for routing."},
	{Name: mCompleted, Kind: "counter", Help: "Jobs whose full stream was relayed to the client."},
	{Name: mFailed, Kind: "counter", Help: "Jobs that failed after exhausting the failover budget."},
	{Name: mRejected, Kind: "counter", Help: "Jobs refused (draining, no workers, fleet busy, invalid), by reason.", Labeled: true},
	{Name: mClientGone, Kind: "counter", Help: "Jobs abandoned because the client went away; never blamed on a worker."},
	{Name: mWorkerJobs, Kind: "counter", Help: "Jobs routed, by worker (retries of one job count per worker tried).", Labeled: true},
	{Name: mRetries, Kind: "counter", Help: "Job failovers, labeled by the worker that failed.", Labeled: true},
	{Name: mWorkerDeaths, Kind: "counter", Help: "Workers declared dead after consecutive failures, by worker.", Labeled: true},
	{Name: mFramesRelayed, Kind: "counter", Help: "Frame parts relayed to clients."},
	{Name: mFramesDiscarded, Kind: "counter", Help: "Duplicate frame parts discarded during failover replays."},
	{Name: mHealthChecks, Kind: "counter", Help: "Health probes, by result.", Labeled: true},
	{Name: mWorkers, Kind: "gauge", Help: "Registered workers, by state.", Labeled: true},
	{Name: mUptime, Kind: "gauge", Help: "Seconds since the gateway started."},
	{Name: mQueued, Kind: "counter", Help: "Jobs that waited in the gateway admission queue."},
	{Name: mQueueDepth, Kind: "gauge", Help: "Jobs currently parked in the admission queue."},
	{Name: mQueueEvict, Kind: "counter", Help: "Queued jobs shed before reaching a worker, by reason.", Labeled: true},
	{Name: mRegistered, Kind: "counter", Help: "Dynamic worker registrations, by kind (new, renew).", Labeled: true},
	{Name: mLeaseExpired, Kind: "counter", Help: "Dynamic workers evicted because their lease lapsed."},
	{Name: mForgotten, Kind: "counter", Help: "Dead dynamic workers removed from the registry entirely."},
	{Name: mStreamStalls, Kind: "counter", Help: "Stream attempts cancelled by the adaptive stall watchdog, by worker.", Labeled: true},
	{Name: mAffinityRouted, Kind: "counter", Help: "Jobs routed to the rendezvous-preferred worker for cache affinity."},
	{Name: mAffinityOverridden, Kind: "counter", Help: "Jobs steered away from the affine worker because its load exceeded the slack."},
}

// NodeStatus is one row of the /nodes table.
type NodeStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`
	// Live counts jobs this gateway currently has routed to the node;
	// Jobs is the running total.
	Live int64 `json:"live"`
	Jobs int64 `json:"jobs"`
	// Queue/Inflight/Capacity echo the node's last load report; BusyRate
	// is its recent busy-seconds-per-second derived from poll deltas.
	Queue    int     `json:"queue"`
	Inflight int     `json:"inflight"`
	Capacity int     `json:"capacity"`
	BusyRate float64 `json:"busy_rate"`
	// Version is the worker's build identity — mixed-fleet version skew
	// shows up here.
	Version  string `json:"version,omitempty"`
	Fails    int    `json:"fails,omitempty"`
	LastSeen string `json:"last_seen,omitempty"`
	LastErr  string `json:"last_err,omitempty"`
	// Dynamic marks a worker that joined via /register; LeaseUntil is
	// when its registration lease lapses unless renewed.
	Dynamic    bool   `json:"dynamic,omitempty"`
	LeaseUntil string `json:"lease_until,omitempty"`
}

// Nodes snapshots the per-worker table.
func (g *Gateway) Nodes() []NodeStatus {
	nodes := g.reg.snapshot()
	out := make([]NodeStatus, 0, len(nodes))
	for _, n := range nodes {
		state, rep, busyRate, fails, lastSeen, lastErr := n.snapshot()
		ns := NodeStatus{
			Name:     n.name,
			URL:      n.base,
			State:    state.String(),
			Live:     n.live.Load(),
			Jobs:     n.jobs.Load(),
			Queue:    rep.Queue,
			Inflight: rep.Inflight,
			Capacity: rep.Capacity,
			BusyRate: busyRate,
			Version:  rep.Version,
			Fails:    fails,
			LastErr:  lastErr,
			Dynamic:  n.dynamic,
		}
		if !lastSeen.IsZero() {
			ns.LastSeen = lastSeen.UTC().Format(time.RFC3339)
		}
		if lease := n.leaseSnapshot(); !lease.IsZero() {
			ns.LeaseUntil = lease.UTC().Format(time.RFC3339)
		}
		out = append(out, ns)
	}
	return out
}

// handleNodes serves the per-worker table as JSON.
func (g *Gateway) handleNodes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.Nodes())
}

// handleHealthz reports gateway liveness plus a fleet state summary.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	states := g.reg.countStates()
	status := "ok"
	code := http.StatusOK
	switch {
	case g.draining.Load():
		status = "draining"
		code = http.StatusServiceUnavailable
	case states[StateHealthy] == 0:
		status = "no_workers"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":           status,
		"workers":          len(g.reg.snapshot()),
		"workers_healthy":  states[StateHealthy],
		"workers_draining": states[StateDraining],
		"workers_dead":     states[StateDead],
		"uptime_s":         int64(time.Since(g.start).Seconds()),
		"version":          host.BuildVersion(),
	})
}

// handleMetrics serves the gateway's own sccgate_* families followed by
// the fleet-wide aggregation: every live worker's /metrics scraped at
// request time and re-exposed with a worker label injected into each
// sample, HELP/TYPE lines deduplicated across workers.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	g.m.Set(mUptime, time.Since(g.start).Seconds())
	for state, count := range g.reg.countStates() {
		g.m.Set(stats.InjectLabel(mWorkers, "state", state.String()), float64(count))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	stats.WriteExposition(w, gateFamilies, g.m.Snapshot())
	g.writeFleetMetrics(w)
}

// scrapedFamily accumulates one metric family across workers.
type scrapedFamily struct {
	help, typ string
	samples   []string
}

// writeFleetMetrics scrapes every non-dead worker's /metrics
// concurrently (bounded by the health client's timeout) and merges the
// results: families keep their first-seen HELP/TYPE, and every sample is
// re-keyed with the worker's name.
func (g *Gateway) writeFleetMetrics(w io.Writer) {
	type scrape struct {
		node *node
		body []byte
	}
	nodes := g.reg.snapshot()
	results := make([]scrape, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		state, _, _, _, _, _ := n.snapshot()
		if state == StateDead {
			continue
		}
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			resp, err := g.health.Get(n.base + "/metrics")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
			if err != nil {
				return
			}
			results[i] = scrape{node: n, body: body}
		}(i, n)
	}
	wg.Wait()

	var order []string
	fams := make(map[string]*scrapedFamily)
	for _, sc := range results {
		if sc.node == nil {
			continue
		}
		mergeExposition(sc.node.name, sc.body, &order, fams)
	}
	for _, name := range order {
		fam := fams[name]
		if fam.typ != "" || fam.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, fam.help, name, fam.typ)
		}
		for _, s := range fam.samples {
			fmt.Fprintln(w, s)
		}
	}
}

// mergeExposition folds one worker's Prometheus text body into the
// family map, injecting worker=name into every sample key.
func mergeExposition(worker string, body []byte, order *[]string, fams map[string]*scrapedFamily) {
	family := func(name string) *scrapedFamily {
		f, ok := fams[name]
		if !ok {
			f = &scrapedFamily{}
			fams[name] = f
			*order = append(*order, name)
		}
		return f
	}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue
			}
			switch fields[1] {
			case "HELP":
				f := family(fields[2])
				if f.help == "" && len(fields) == 4 {
					f.help = fields[3]
				}
			case "TYPE":
				f := family(fields[2])
				if f.typ == "" && len(fields) == 4 {
					f.typ = fields[3]
				}
			}
			continue
		}
		// Sample: "<key> <value>" where the key may carry labels. The
		// value is the last space-separated token (label values in this
		// codebase never contain spaces, and a timestamped sample would
		// still split correctly on the final token).
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		key, val := line[:i], line[i+1:]
		name := key
		if j := strings.IndexByte(key, '{'); j >= 0 {
			name = key[:j]
		}
		f := family(name)
		f.samples = append(f.samples, stats.InjectLabel(key, "worker", worker)+" "+val)
	}
}

// Metric returns the current value of a gateway metric key (tests and
// embedders; the key is the full name including any label suffix).
func (g *Gateway) Metric(key string) float64 { return g.m.Get(key) }
