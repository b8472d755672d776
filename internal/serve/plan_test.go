package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sccpipe/internal/core"
)

// readFrameBytes drains a multipart frame stream returning the raw PNG
// bytes of each frame part (for byte-identity comparisons) and the
// trailing JSON summary.
func readFrameBytes(t *testing.T, resp *http.Response) ([][]byte, map[string]any) {
	t.Helper()
	defer resp.Body.Close()
	_, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	tail := map[string]any{}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			io.Copy(io.Discard, resp.Body) // as readStream: wait for the handler
			return frames, tail
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(part)
		if err != nil {
			t.Fatal(err)
		}
		switch ct := part.Header.Get("Content-Type"); ct {
		case "image/png":
			frames = append(frames, data)
		case "application/json":
			if err := json.Unmarshal(data, &tail); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected part type %q", ct)
		}
	}
}

// After the fused-attribution fix, /metrics must never carry a synthetic
// "fused" stage: a fused pass's busy time is split across the covered
// filter kinds, so the per-stage counters account each stage exactly once
// (no fused total double-counting its constituents).
func TestMetricsStageBusyNoFusedDoubleCount(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJob(t, ts.URL, smallRender(4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	readStream(t, resp)

	m := scrapeMetrics(t, ts.URL)
	for k := range m {
		if strings.Contains(k, `stage="`+core.StageFused.String()+`"`) {
			t.Errorf("metrics carry a fused pseudo-stage sample: %s", k)
		}
	}
	// Every real stage the default (fused) layout runs must be attributed.
	kinds := []core.StageKind{core.StageRender, core.StageTransfer}
	kinds = append(kinds, core.FilterOrder[:]...)
	for _, kind := range kinds {
		key := stageBusyKey("exec", kind.String())
		v, ok := m[key]
		if !ok || v <= 0 {
			t.Errorf("stage %v busy = %v (present %v), want > 0", kind, v, ok)
		}
	}
}

// A profile-planned server must not change the pixels of a job that pinned
// its pipeline count: the plan may move fusion boundaries and worker
// counts, never the output. Byte-compares the PNG stream against a static
// server's.
func TestPlanProfileKeepsExplicitPipelinePixels(t *testing.T) {
	static := httptest.NewServer(New(Config{}))
	defer static.Close()
	planned := httptest.NewServer(New(Config{Plan: PlanProfile}))
	defer planned.Close()

	spec := JobSpec{Mode: ModeRender, Frames: 3, Width: 64, Height: 48, Pipelines: 2, Seed: 7}
	respS := postJob(t, static.URL, spec)
	if respS.StatusCode != http.StatusOK {
		t.Fatalf("static status %d", respS.StatusCode)
	}
	framesS, tailS := readFrameBytes(t, respS)
	respP := postJob(t, planned.URL, spec)
	if respP.StatusCode != http.StatusOK {
		t.Fatalf("planned status %d", respP.StatusCode)
	}
	framesP, tailP := readFrameBytes(t, respP)

	if len(framesS) != 3 || len(framesP) != 3 {
		t.Fatalf("frame counts: static %d, planned %d, want 3", len(framesS), len(framesP))
	}
	for i := range framesS {
		if !bytes.Equal(framesS[i], framesP[i]) {
			t.Fatalf("frame %d differs between static and planned servers", i)
		}
	}
	if _, ok := tailS["plan"]; ok {
		t.Fatalf("static summary unexpectedly carries a plan: %v", tailS["plan"])
	}
	p, _ := tailP["plan"].(string)
	if p == "" {
		t.Fatalf("planned summary missing plan field: %v", tailP)
	}

	// The plan gauges are exposed only while a planner is active.
	mp := scrapeMetrics(t, planned.URL)
	if mp[mPlanPipelines] < 1 || mp[mPlanStages] < 1 {
		t.Fatalf("plan gauges = %v / %v, want >= 1", mp[mPlanPipelines], mp[mPlanStages])
	}
	ms := scrapeMetrics(t, static.URL)
	if _, ok := ms[mPlanPipelines]; ok {
		t.Fatal("static server exposes plan gauges")
	}
	if ms[mPlanReplans] != 0 {
		t.Fatalf("static server plan replans = %v, want 0", ms[mPlanReplans])
	}
}

// Online mode feeds job observations into the controller and re-plans once
// a full window's stage balance drifts past the threshold. Real wall-time
// shares never match the modeled SCC shape, so with a tiny threshold one
// job's window must trigger a re-computation.
func TestPlanOnlineObservesAndReplans(t *testing.T) {
	s := New(Config{Plan: PlanOnline, Workers: 1})
	if s.planCtl == nil {
		t.Fatal("online mode built no controller")
	}
	s.planCtl.MinFrames = 4
	s.planCtl.DriftThreshold = 1e-6
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJob(t, ts.URL, smallRender(6))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	frames, tail := readStream(t, resp)
	if len(frames) != 6 {
		t.Fatalf("streamed %d frames, want 6", len(frames))
	}
	if p, _ := tail["plan"].(string); p == "" {
		t.Fatalf("online summary missing plan field: %v", tail)
	}
	if got := s.planCtl.Replans(); got < 1 {
		t.Fatalf("replans = %d after a full drifted window (drift %v), want >= 1",
			got, s.planCtl.LastDrift())
	}
	m := scrapeMetrics(t, ts.URL)
	if m[mPlanDrift] <= 0 {
		t.Fatalf("plan drift gauge = %v, want > 0", m[mPlanDrift])
	}
}

// An unknown plan mode must not take the server down: it logs and serves
// the static layout.
func TestPlanUnknownModeFallsBackToStatic(t *testing.T) {
	s := New(Config{Plan: "bogus"})
	if s.planCtl != nil {
		t.Fatal("unknown plan mode built a controller")
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp := postJob(t, ts.URL, smallRender(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	readStream(t, resp)
}
