package core

import (
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sccpipe/internal/faults"
	"sccpipe/internal/frame"
	"sccpipe/internal/render"
)

// collectSupervised runs a supervised exec and records every sink call, so
// tests can assert both pixel equality and exactly-once in-order delivery.
func collectSupervised(t *testing.T, spec ExecSpec) ([]*frame.Image, ExecResult) {
	t.Helper()
	cams := render.Walkthrough(spec.Frames, execScene.Bounds())
	var order []int
	out := make([]*frame.Image, spec.Frames)
	sink := func(f int, img *frame.Image) {
		order = append(order, f)
		out[f] = img.Clone()
	}
	res, err := Exec(spec, execScene, cams, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != spec.Frames {
		t.Fatalf("sink called %d times, want %d (exactly once per frame)", len(order), spec.Frames)
	}
	for f, got := range order {
		if got != f {
			t.Fatalf("sink order %v: frame %d delivered at position %d", order, got, f)
		}
	}
	return out, res
}

func quickRecovery() *faults.RecoveryPolicy {
	return &faults.RecoveryPolicy{Backoff: time.Microsecond, MaxBackoff: 50 * time.Microsecond}
}

func TestExecSupervisedCleanMatchesReference(t *testing.T) {
	spec := execSpecForTest(3, OneRenderer)
	spec.Recovery = quickRecovery() // supervised path, no faults
	got, res := collectSupervised(t, spec)
	if res.Degraded != nil {
		t.Fatalf("clean supervised run reported degraded: %v", res.Degraded)
	}
	want := collect(t, execSpecForTest(3, OneRenderer), false)
	for f := range want {
		if !got[f].Equal(want[f]) {
			t.Fatalf("frame %d differs from sequential reference", f)
		}
	}
}

func TestExecSupervisedSurvivesPipelineDeath(t *testing.T) {
	for _, rc := range []RendererConfig{OneRenderer, NRenderers} {
		spec := execSpecForTest(3, rc)
		spec.Faults = faults.MustInjector(faults.Plan{Seed: 4, Rules: []faults.Rule{
			{Kind: faults.KindDeath, Pipeline: 1, Seq: 2},
		}})
		spec.Recovery = quickRecovery()
		got, res := collectSupervised(t, spec)

		d := res.Degraded
		if !d.IsDegraded() || len(d.DeadPipelines) != 1 || d.DeadPipelines[0] != 1 {
			t.Fatalf("%v: degraded = %v, want pipeline 1 dead", rc, d)
		}
		if !strings.Contains(d.Reasons[1], "core death") {
			t.Errorf("%v: reason = %q", rc, d.Reasons[1])
		}
		// The survivors re-render the dead pipeline's strips bit-identically:
		// every frame, including those carried by a foreign pipeline, matches
		// the sequential oracle.
		want := collect(t, execSpecForTest(3, rc), false)
		for f := range want {
			if !got[f].Equal(want[f]) {
				t.Fatalf("%v: frame %d differs from reference after re-partitioning", rc, f)
			}
		}
	}
}

func TestExecSupervisedRetriesKeepPixels(t *testing.T) {
	for _, rc := range []RendererConfig{OneRenderer, NRenderers} {
		spec := execSpecForTest(2, rc)
		spec.Faults = faults.MustInjector(faults.Plan{Seed: 8, Rules: []faults.Rule{
			{Kind: faults.KindTransient, Pipeline: 0, Stage: "blur", Seq: 1, Times: 2},
			{Kind: faults.KindTransfer, Pipeline: 1, Stage: "swap", Seq: 3, Times: 1},
		}})
		spec.Recovery = quickRecovery()
		var mu sync.Mutex
		retries := 0
		spec.Recovery.OnEvent = func(e faults.Event) {
			if e.Kind == faults.EventRetry {
				mu.Lock()
				retries++
				mu.Unlock()
			}
		}
		renders := map[int]int{}
		spec.Observer.OnRenderStats = func(pipeline int, _ render.Stats) {
			mu.Lock()
			renders[pipeline]++
			mu.Unlock()
		}
		got, res := collectSupervised(t, spec)
		if res.Degraded != nil {
			t.Fatalf("%v: recovered transients must not degrade the run: %v", rc, res.Degraded)
		}
		mu.Lock()
		if retries != 3 {
			t.Errorf("%v: retry events = %d, want 3", rc, retries)
		}
		// A faulted run is the production program: one renderer still
		// renders each frame once, whole (pipeline -1), not strip by strip.
		if rc == OneRenderer && (len(renders) != 1 || renders[-1] != spec.Frames) {
			t.Errorf("render calls by pipeline %v, want %d whole-frame renders only", renders, spec.Frames)
		}
		mu.Unlock()
		want := collect(t, execSpecForTest(2, rc), false)
		for f := range want {
			if !got[f].Equal(want[f]) {
				t.Fatalf("%v: frame %d differs from reference after retries", rc, f)
			}
		}
	}
}

func TestExecSupervisedStallWatchdog(t *testing.T) {
	for _, rc := range []RendererConfig{OneRenderer, NRenderers} {
		for _, organic := range []bool{false, true} {
			spec := execSpecForTest(2, rc)
			spec.Recovery = quickRecovery()
			// Generous deadline: real stage work must never trip it, even
			// under the race detector's slowdown — only the stall does.
			spec.Recovery.StallTimeout = 250 * time.Millisecond
			release := make(chan struct{})
			if organic {
				// The busy callback runs inside the stage application:
				// holding the first scratch pass of strip 0 overruns the
				// deadline while the stage still holds its strip, which the
				// watchdog abandons and a survivor re-renders.
				var held atomic.Bool
				spec.Observer.OnStageBusy = func(kind StageKind, pipeline int, _ time.Duration) {
					if kind == StageScratch && pipeline == 0 && held.CompareAndSwap(false, true) {
						<-release
					}
				}
			} else {
				spec.Faults = faults.MustInjector(faults.Plan{Seed: 6, Rules: []faults.Rule{
					{Kind: faults.KindStall, Pipeline: 0, Stage: "scratch", Seq: 1},
				}})
			}
			got, res := collectSupervised(t, spec)
			close(release)
			d := res.Degraded
			if !d.IsDegraded() || len(d.DeadPipelines) != 1 || d.DeadPipelines[0] != 0 {
				t.Fatalf("%v organic=%v: degraded = %v, want pipeline 0 dead of a stall", rc, organic, d)
			}
			want := collect(t, execSpecForTest(2, rc), false)
			for f := range want {
				if !got[f].Equal(want[f]) {
					t.Fatalf("%v organic=%v: frame %d differs from reference after stall recovery", rc, organic, f)
				}
			}
		}
	}
}

// TestTaintedFrameStaysOutOfPool: once a strip of a shared frame is handed
// out twice (a redo), the frame's buffer may still be written by the first
// holder, so the transfer emits a freshly assembled copy and never returns
// the shared buffer to the pool.
func TestTaintedFrameStaysOutOfPool(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the sync.Pool contents
	pool := frame.NewPool()
	spec := ExecSpec{Frames: 1, Width: 8, Height: 6, Pipelines: 2, Pool: pool}
	x := newExecRun(spec, execScene, render.Walkthrough(1, execScene.Bounds()))
	var parent *frame.Image
	renderFrame := func(int) *frame.Image { parent = pool.Get(8, 6); return parent }
	first := x.shared.view(0, 0, renderFrame)
	second := x.shared.view(0, 1, renderFrame)
	if first == nil || second == nil || first.Parent() != parent {
		t.Fatal("first requests must get views of the shared frame")
	}
	if x.shared.view(0, 1, renderFrame) != nil {
		t.Fatal("a strip handed out twice must be re-rendered, not shared again")
	}
	redo := &frame.Strip{Index: 1, Y0: second.Y0, Img: pool.Get(8, second.Img.H)}
	var emitted *frame.Image
	x.transfer(0, []*frame.Strip{first, redo}, func(_ int, img *frame.Image) { emitted = img })
	if emitted == parent {
		t.Fatal("a tainted frame was emitted in place")
	}
	for i := 0; i < 4; i++ {
		if pool.Get(8, 6) == parent {
			t.Fatal("the tainted shared buffer re-entered the pool")
		}
	}
	if x.shared.view(0, 0, renderFrame) != nil {
		t.Fatal("a request for an emitted frame must not recreate its slot")
	}
}
