package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"image/png"
	"io"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smallRender is a job small enough to run in milliseconds.
func smallRender(frames int) JobSpec {
	return JobSpec{Mode: ModeRender, Frames: frames, Width: 64, Height: 48, Pipelines: 2}
}

func smallSimulate() JobSpec {
	return JobSpec{Mode: ModeSimulate, Frames: 4, Width: 64, Height: 64, Pipelines: 2, Trace: true}
}

func postJob(t *testing.T, url string, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream parses a multipart frame stream: it returns the PNG frame
// indices in arrival order and the trailing JSON part.
func readStream(t *testing.T, resp *http.Response) (frames []int, tail map[string]any) {
	t.Helper()
	defer resp.Body.Close()
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		t.Fatal(err)
	}
	if mt != "multipart/x-mixed-replace" {
		t.Fatalf("content type %q, want multipart/x-mixed-replace", mt)
	}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			// Read to the end of the HTTP body: it ends only when the
			// handler has returned, after the job's outcome is counted, so
			// a metrics scrape that follows sees this job.
			io.Copy(io.Discard, resp.Body)
			return frames, tail
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ct := part.Header.Get("Content-Type"); ct {
		case "image/png":
			if _, err := png.Decode(part); err != nil {
				t.Fatalf("frame %d: bad PNG: %v", len(frames), err)
			}
			idx, err := strconv.Atoi(part.Header.Get("X-Frame-Index"))
			if err != nil {
				t.Fatalf("bad X-Frame-Index: %v", err)
			}
			frames = append(frames, idx)
		case "application/json":
			tail = map[string]any{}
			if err := json.NewDecoder(part).Decode(&tail); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected part type %q", ct)
		}
	}
}

func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad metrics line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[name] = f
	}
	return out
}

func TestRenderJobStreamsFrames(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJob(t, ts.URL, smallRender(4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	frames, tail := readStream(t, resp)
	if len(frames) != 4 {
		t.Fatalf("streamed %d frames, want 4", len(frames))
	}
	for i, f := range frames {
		if f != i {
			t.Fatalf("frame order %v, want 0..3", frames)
		}
	}
	if tail == nil || tail["frames"] != float64(4) {
		t.Fatalf("bad summary part %v", tail)
	}
}

func TestSimulateJobReturnsJSON(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJob(t, ts.URL, smallSimulate())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sim simResponse
	if err := json.NewDecoder(resp.Body).Decode(&sim); err != nil {
		t.Fatal(err)
	}
	if sim.Seconds <= 0 {
		t.Fatalf("simulated seconds = %v, want > 0", sim.Seconds)
	}
	if sim.FramePeriodS <= 0 {
		t.Fatalf("frame period = %v, want > 0 (trace was requested)", sim.FramePeriodS)
	}
}

func TestInvalidJobRejected(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, spec := range []JobSpec{
		{Mode: "transcode"},
		{Mode: ModeRender, Pipelines: 99},
		{Mode: ModeSimulate, Frames: 1 << 30},
	} {
		resp := postJob(t, ts.URL, spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %+v: status %d, want 400", spec, resp.StatusCode)
		}
	}
	if got := s.m.Get(mRejected + `{reason="invalid"}`); got != 3 {
		t.Fatalf("invalid rejections = %v, want 3", got)
	}
}

// holdJobs installs the test hook so each running job blocks until the
// returned release func is called. started receives one value per job that
// reaches a worker slot.
func holdJobs(s *Server) (started chan JobSpec, release func()) {
	started = make(chan JobSpec, 8)
	gate := make(chan struct{})
	s.testHookRunning = func(spec JobSpec) {
		started <- spec
		<-gate
	}
	return started, func() { close(gate) }
}

func TestQueueFullRejectsWith429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: -1})
	started, release := holdJobs(s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() { first <- postJob(t, ts.URL, smallRender(2)) }()
	<-started // the job holds the only slot and the only room place

	resp := postJob(t, ts.URL, smallRender(2))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second job status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	release()
	r := <-first
	frames, tail := readStream(t, r)
	if len(frames) != 2 || tail["frames"] != float64(2) {
		t.Fatalf("held job did not complete cleanly: %v %v", frames, tail)
	}
	if got := s.m.Get(mRejected + `{reason="queue_full"}`); got != 1 {
		t.Fatalf("queue_full rejections = %v, want 1", got)
	}
}

func TestDeadlineExpiryInQueue(t *testing.T) {
	s := New(Config{Workers: 1})
	started, release := holdJobs(s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() { first <- postJob(t, ts.URL, smallRender(2)) }()
	<-started

	// This job is admitted to the waiting room but never gets a slot
	// before its 50 ms deadline.
	spec := smallRender(2)
	spec.TimeoutMS = 50
	resp := postJob(t, ts.URL, spec)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("body %q does not surface the deadline error", body)
	}

	release()
	readStream(t, <-first)
	if got := s.m.Get(mFailed); got != 1 {
		t.Fatalf("failed jobs = %v, want 1", got)
	}
	if got := s.m.Get(mCompleted); got != 1 {
		t.Fatalf("completed jobs = %v, want 1", got)
	}
}

func TestDeadlineExpiryMidRun(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Too much work for the deadline: either it expires before the first
	// frame (plain 504) or mid-stream (error part closes the stream).
	spec := JobSpec{Mode: ModeRender, Frames: 500, Width: 512, Height: 512, Pipelines: 2, TimeoutMS: 40}
	resp := postJob(t, ts.URL, spec)
	switch resp.StatusCode {
	case http.StatusGatewayTimeout:
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "deadline") {
			t.Fatalf("504 body %q does not mention the deadline", body)
		}
	case http.StatusOK:
		frames, tail := readStream(t, resp)
		if len(frames) >= 500 {
			t.Fatalf("job was not cut off (%d frames)", len(frames))
		}
		errMsg, _ := tail["error"].(string)
		if !strings.Contains(errMsg, "deadline") {
			t.Fatalf("trailing part %v does not surface the deadline error", tail)
		}
	default:
		t.Fatalf("status %d, want 504 or 200", resp.StatusCode)
	}
	if got := s.m.Get(mFailed); got != 1 {
		t.Fatalf("failed jobs = %v, want 1", got)
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	s := New(Config{Workers: 1})
	started, release := holdJobs(s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() { first <- postJob(t, ts.URL, smallRender(3)) }()
	<-started

	s.BeginDrain()

	// New work is refused while draining...
	resp := postJob(t, ts.URL, smallRender(1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: status %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hz.StatusCode)
	}

	// ...but the in-flight job runs to completion and Drain observes it.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	release()
	frames, tail := readStream(t, <-first)
	if len(frames) != 3 || tail["frames"] != float64(3) {
		t.Fatalf("in-flight job truncated by drain: %v %v", frames, tail)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := s.m.Get(mRejected + `{reason="draining"}`); got != 1 {
		t.Fatalf("draining rejections = %v, want 1", got)
	}
}

func TestMetricsAfterJobMix(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// 1 simulate + 1 render complete; 1 submission bounces off the full
	// queue while the render runs.
	resp := postJob(t, ts.URL, smallSimulate())
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	started, release := holdJobs(s)
	renderDone := make(chan *http.Response, 1)
	go func() { renderDone <- postJob(t, ts.URL, smallRender(3)) }()
	<-started
	rej := postJob(t, ts.URL, smallRender(1))
	rej.Body.Close()
	if rej.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d", rej.StatusCode)
	}
	release()
	readStream(t, <-renderDone)

	m := scrapeMetrics(t, ts.URL)
	checks := map[string]float64{
		"sccserve_jobs_accepted_total":                      2,
		"sccserve_jobs_completed_total":                     2,
		"sccserve_jobs_failed_total":                        0,
		`sccserve_jobs_rejected_total{reason="queue_full"}`: 1,
		"sccserve_frames_served_total":                      3,
		"sccserve_queue_depth":                              0,
		"sccserve_inflight_runs":                            0,
	}
	for name, want := range checks {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	// Per-stage busy time from both backends must be present and positive.
	for _, key := range []string{
		`sccserve_stage_busy_seconds_total{backend="exec",stage="render"}`,
		`sccserve_stage_busy_seconds_total{backend="exec",stage="blur"}`,
		`sccserve_stage_busy_seconds_total{backend="sim",stage="blur"}`,
	} {
		if m[key] <= 0 {
			t.Errorf("%s = %v, want > 0", key, m[key])
		}
	}
}

func TestHealthzOK(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" {
		t.Fatalf("healthz %v", hz)
	}
}

func TestListenAndServeDrainsOnCancel(t *testing.T) {
	s := New(Config{Workers: 1, DrainTimeout: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- s.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) {
			addrc <- a.String()
		})
	}()
	var url string
	select {
	case a := <-addrc:
		url = "http://" + a
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	}

	resp := postJob(t, url, smallRender(2))
	frames, _ := readStream(t, resp)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("ListenAndServe after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !s.Draining() {
		t.Fatal("server not marked draining after shutdown")
	}
}

// TestSlowHeaderClientDisconnected: a client that sends half a request
// header and then stalls (a slow-loris) is disconnected once
// readHeaderTimeout passes, instead of holding its connection forever.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	t.Parallel() // the wait is readHeaderTimeout of wall time
	s := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- s.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrc <- a.String() })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /jobs HTTP/1.1\r\nHost: sccserve\r\nContent-Type: appl"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	n, err := conn.Read(make([]byte, 512))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after a half-sent header", time.Since(start))
	}
	if err == nil {
		t.Fatalf("server answered %d bytes to a half-sent header instead of disconnecting", n)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("disconnected after %v, before the header timeout", waited)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
}

func TestJobsMethodNotAllowed(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /jobs status %d, want 405", resp.StatusCode)
	}
}
