package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"sccpipe/internal/fleet"
	"sccpipe/internal/serve"
)

// fleetWorkers is the worker count behind the gateway on the fleet
// workload.
const fleetWorkers = 2

// system is the program under test, started in-process on loopback on
// its default production configuration: serve workers, plus a fleet
// gateway over them on the fleet workload.
type system struct {
	url        string   // where clients submit jobs
	workerURLs []string // every worker, for /metrics scrapes
	gateURL    string   // "" without a gateway
	gateway    *fleet.Gateway
	servers    []*http.Server
	done       []chan struct{}
}

// startSystem builds and starts the system for w. A non-nil tracer wraps
// every handler with timing wrappers; nil runs the program bare.
func startSystem(w *workload, tr *tracer) (*system, error) {
	s := &system{}
	nWorkers := 1
	if w.fleet {
		nWorkers = fleetWorkers
	}
	for i := 0; i < nWorkers; i++ {
		var h http.Handler = serve.New(serve.Config{})
		if tr != nil {
			h = tr.wrapWorker(h)
		}
		url, err := s.listen(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.workerURLs = append(s.workerURLs, url)
	}
	s.url = s.workerURLs[0]
	if !w.fleet {
		return s, nil
	}
	g, err := fleet.New(fleet.Config{Workers: s.workerURLs})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	s.gateway = g
	var h http.Handler = g
	if tr != nil {
		h = tr.wrapGateway(h)
	}
	if s.url, err = s.listen(h); err != nil {
		s.close()
		return nil, err
	}
	s.gateURL = s.url
	g.Start()
	// Health convergence: every worker has answered a probe.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		ready := 0
		for _, n := range g.Nodes() {
			if n.State == "healthy" && n.LastSeen != "" {
				ready++
			}
		}
		if ready == nWorkers {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("fleet: workers did not become healthy")
		}
	}
}

func (s *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	s.servers = append(s.servers, hs)
	s.done = append(s.done, done)
	return "http://" + ln.Addr().String(), nil
}

// close stops the gateway's health loops and every server, and waits
// for them to exit.
func (s *system) close() {
	if s.gateway != nil {
		s.gateway.Close()
	}
	for i := len(s.servers) - 1; i >= 0; i-- {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.servers[i].Shutdown(ctx); err != nil {
			s.servers[i].Close()
		}
		cancel()
		<-s.done[i]
	}
}

// scrapeAll snapshots every worker's and the gateway's /metrics.
func (s *system) scrapeAll(c *http.Client) ([]promSample, error) {
	var out []promSample
	for _, u := range append(append([]string(nil), s.workerURLs...), s.gateURL) {
		if u == "" {
			continue
		}
		p, err := scrape(c, u)
		if err != nil {
			return nil, err
		}
		if u == s.gateURL {
			// The gateway also re-exports its workers' samples; keep only
			// its own sccgate_ families so nothing is counted twice.
			for k := range p {
				if !strings.HasPrefix(k, "sccgate_") {
					delete(p, k)
				}
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// tracer records, from outside the program, when each job reaches the
// gateway and the worker and when the worker writes and flushes each part
// of its response. Jobs are matched across layers by their seed.
type tracer struct {
	mu        sync.Mutex
	gateEntry map[int64]time.Time
	jobs      []*workerJob
}

// workerJob is one /jobs request as a worker handled it.
type workerJob struct {
	seed       int64
	entry      time.Time
	wall       time.Duration
	firstWrite time.Time
	writeTime  time.Duration
	flushes    []time.Time
}

func newTracer() *tracer { return &tracer{gateEntry: map[int64]time.Time{}} }

// peekSeed reads a job body and puts it back, returning the spec's seed.
func peekSeed(r *http.Request) int64 {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return 0
	}
	var spec struct {
		Seed int64 `json:"seed"`
	}
	_ = json.Unmarshal(body, &spec) // a bad body is the program's to reject
	return spec.Seed
}

func (t *tracer) wrapGateway(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/jobs" {
			now := time.Now()
			seed := peekSeed(r)
			t.mu.Lock()
			t.gateEntry[seed] = now
			t.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

func (t *tracer) wrapWorker(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		j := &workerJob{entry: time.Now()}
		j.seed = peekSeed(r)
		h.ServeHTTP(&timedWriter{ResponseWriter: w, job: j}, r)
		j.wall = time.Since(j.entry)
		t.mu.Lock()
		t.jobs = append(t.jobs, j)
		t.mu.Unlock()
	})
}

// timedWriter times the worker's writes and flushes. It implements
// http.Flusher: serve type-asserts its ResponseWriter for Flush, and a
// wrapper that hid it would buffer the stream and change the program.
type timedWriter struct {
	http.ResponseWriter
	job *workerJob
}

var _ http.Flusher = (*timedWriter)(nil)

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	if w.job.firstWrite.IsZero() {
		w.job.firstWrite = t0
	}
	n, err := w.ResponseWriter.Write(p)
	w.job.writeTime += time.Since(t0)
	return n, err
}

func (w *timedWriter) Flush() {
	t0 := time.Now()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	now := time.Now()
	w.job.writeTime += now.Sub(t0)
	w.job.flushes = append(w.job.flushes, now)
}

// take hands over and clears what the tracer recorded.
func (t *tracer) take() (map[int64]time.Time, []*workerJob) {
	t.mu.Lock()
	defer t.mu.Unlock()
	g, j := t.gateEntry, t.jobs
	t.gateEntry, t.jobs = map[int64]time.Time{}, nil
	return g, j
}
