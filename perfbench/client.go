package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sccpipe/internal/codec"
	"sccpipe/internal/serve"
)

// clients is the closed loop's size: viewers that each wait for a stream
// to finish before asking for the next, one connection each. Two is the
// vCPU count of the machine the benchmark was sized on; it stays two on
// larger machines so that numbers stay comparable.
const clients = 2

// simReply is the JSON body of a simulate job.
type simReply struct {
	Seconds          float64 `json:"seconds"`
	SCCEnergyJ       float64 `json:"scc_energy_j"`
	HostExtraEnergyJ float64 `json:"host_extra_energy_j"`
	FramePeriodS     float64 `json:"frame_period_s"`
}

// result is what the client saw of one job.
type result struct {
	attempted bool
	err       error // nil when every frame and the summary verified
	frames    int
	send      time.Time
	latency   time.Duration // send → summary (or simulate reply) received
	ttff      time.Duration // send → first frame verified
	recv      []time.Time   // receipt time of each verified frame
	wire      int64         // response body bytes, multipart framing included
	verify    time.Duration
	sim       simReply
	// kept holds a sampled job's frames for the reference check: PNG
	// payloads, or the raw pixels a delta chain decoded to.
	kept [][]byte
}

// countingReader counts the response bytes the client reads.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
}

// drive replays jobs to completion from a closed loop of clients and
// returns one result per job. Jobs not started before stop are left
// unattempted; stop only guards the run's time limit.
func drive(ctx context.Context, c *http.Client, url string, jobs []job, delta bool, stop time.Time) []result {
	results := make([]result, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) || time.Now().After(stop) {
					return
				}
				results[k] = runJob(ctx, c, url, jobs[k], delta)
			}
		}()
	}
	wg.Wait()
	return results
}

// runJob submits one job and verifies its reply as it streams in.
func runJob(ctx context.Context, c *http.Client, url string, j job, delta bool) (res result) {
	res.attempted = true
	body, err := json.Marshal(j.spec)
	if err != nil {
		res.err = err
		return res
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/jobs", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if delta {
		req.Header.Set(serve.FrameEncodingHeader, serve.FrameEncodingDelta)
	}
	send := time.Now()
	res.send = send
	resp, err := c.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	defer func() { res.wire = cr.n }()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(cr, 4<<10))
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return res
	}
	if j.spec.Mode == serve.ModeSimulate {
		res.ttff = time.Since(send) // the reply carries the whole walkthrough
		if err := json.NewDecoder(cr).Decode(&res.sim); err != nil {
			res.err = fmt.Errorf("simulate reply: %w", err)
			return res
		}
		_, _ = io.Copy(io.Discard, cr)
		res.latency = time.Since(send)
		res.frames = j.spec.Frames
		return res
	}
	res.err = readStream(cr, resp.Header.Get("Content-Type"), j, delta, send, &res)
	return res
}

// readStream reads a multipart frame stream, verifying each frame's digest
// on receipt (for delta parts, the digest of the pixels the chain decodes
// to), dense frame indices, and a summary that reports every frame.
func readStream(r io.Reader, contentType string, j job, delta bool, send time.Time, res *result) error {
	mt, params, err := mime.ParseMediaType(contentType)
	if err != nil || mt != "multipart/x-mixed-replace" || params["boundary"] == "" {
		return fmt.Errorf("unexpected content type %q", contentType)
	}
	wantType := "image/png"
	if delta {
		wantType = serve.DeltaContentType
	}
	mr := multipart.NewReader(r, params["boundary"])
	var chain []byte
	for {
		part, err := mr.NextPart()
		if err != nil {
			return fmt.Errorf("stream ended before the summary after %d frames: %v", res.frames, err)
		}
		payload, err := io.ReadAll(part)
		if err != nil {
			return fmt.Errorf("frame %d: %w", res.frames, err)
		}
		ct := part.Header.Get("Content-Type")
		if ct == "application/json" {
			var sum struct {
				Frames int    `json:"frames"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal(payload, &sum); err != nil {
				return fmt.Errorf("summary: %w", err)
			}
			if sum.Error != "" {
				return fmt.Errorf("job error: %s", sum.Error)
			}
			if sum.Frames != j.spec.Frames || res.frames != j.spec.Frames {
				return fmt.Errorf("summary says %d frames, received %d, asked %d", sum.Frames, res.frames, j.spec.Frames)
			}
			res.latency = time.Since(send)
			if _, err := mr.NextPart(); err != io.EOF {
				return fmt.Errorf("parts after the summary: %v", err)
			}
			return nil
		}
		if ct != wantType {
			return fmt.Errorf("frame %d has content type %q, want %q", res.frames, ct, wantType)
		}
		if idx, err := strconv.Atoi(part.Header.Get("X-Frame-Index")); err != nil || idx != res.frames {
			return fmt.Errorf("frame index %q, want %d", part.Header.Get("X-Frame-Index"), res.frames)
		}
		t0 := time.Now()
		pixels := payload
		if delta {
			if chain == nil {
				chain = make([]byte, j.spec.Width*j.spec.Height*4)
			}
			if pixels, err = codec.FrameDeltaDecode(chain, payload, j.spec.Width, j.spec.Height); err != nil {
				return fmt.Errorf("frame %d: %w", res.frames, err)
			}
			chain = pixels
		}
		if got, want := serve.FrameDigest(pixels), part.Header.Get("X-Frame-Digest"); got != want {
			return fmt.Errorf("frame %d digest %s, header says %s", res.frames, got, want)
		}
		now := time.Now()
		res.verify += now.Sub(t0)
		if res.frames == 0 {
			res.ttff = now.Sub(send)
		}
		res.recv = append(res.recv, now)
		if j.sample {
			res.kept = append(res.kept, pixels)
		}
		res.frames++
	}
}
