package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sccpipe/internal/faults"
	"sccpipe/internal/frame"
	"sccpipe/internal/render"
)

// The pooled runtime must not pay per-frame pixel traffic: once the pool is
// warm, each additional frame costs a handful of strip headers, not fresh
// frame buffers. Measured as the marginal cost between a short and a long
// run sharing one pool (goroutine spawns and renderer setup cancel out).
// GC is paused so a collection can't empty the sync.Pool mid-measurement.
// A clean run with a Recovery policy set runs the same program and must
// meet the same bounds.
func TestExecSteadyStatePerFrameAllocs(t *testing.T) {
	for _, c := range []struct {
		rc  RendererConfig
		rec *faults.RecoveryPolicy
	}{{OneRenderer, nil}, {NRenderers, nil}, {OneRenderer, &faults.RecoveryPolicy{}}, {NRenderers, &faults.RecoveryPolicy{}}} {
		rc := c.rc
		pool := frame.NewPool()
		run := func(frames int) (mallocs, bytes uint64) {
			spec := ExecSpec{
				Frames: frames, Width: 96, Height: 72,
				Pipelines: 3, Renderer: rc, Seed: 7, Pool: pool,
				Recovery: c.rec,
			}
			cams := render.Walkthrough(frames, execScene.Bounds())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Exec(spec, execScene, cams, func(int, *frame.Image) {}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		run(4) // warm the pool and every per-run structure
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		m1, b1 := run(4)
		m2, b2 := run(24)
		// Signed: a pool miss in the short run can make the long run the
		// cheaper one, and an unsigned difference would wrap around.
		perFrameAllocs := float64(int64(m2)-int64(m1)) / 20
		perFrameBytes := float64(int64(b2)-int64(b1)) / 20
		t.Logf("%v: %.1f allocs/frame, %.0f B/frame marginal", rc, perFrameAllocs, perFrameBytes)
		// A 96×72 frame alone is 27 KB; the unpooled runtime allocated
		// several of them (plus render scratch) per frame. Steady state
		// must stay well under one frame buffer per frame. The byte bound
		// leaves headroom for the race detector, whose instrumentation
		// roughly doubles the header/closure allocation sizes.
		if perFrameAllocs > 64 {
			t.Errorf("%v: %.1f allocs per frame in steady state", rc, perFrameAllocs)
		}
		if perFrameBytes > 32*1024 {
			t.Errorf("%v: %.0f bytes per frame in steady state", rc, perFrameBytes)
		}
	}
}
