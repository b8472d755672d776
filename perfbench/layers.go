package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"sccpipe/internal/codec"
	"sccpipe/internal/core"
	"sccpipe/internal/frame"
	"sccpipe/internal/rcache"
	"sccpipe/internal/render"
	"sccpipe/internal/serve"
)

// replayFrames bounds the timed layer replays: a prefix of the job list
// holding at least this many frames is replayed through the layer
// functions directly.
const replayFrames = 120

// keyframeScheme is the scheme byte codec.FrameDeltaEncode puts first in
// a keyframe payload (the frame itself as PNG).
const keyframeScheme = 0x03

// traced is the per-layer run. It replays the job list twice on fresh
// systems — bare, then with timing wrappers around every handler and
// ResponseWriter — so the difference is the tracing overhead, and takes
// the layer numbers from the traced pass, the /metrics counters each layer
// exports, and timed replays through the public layer functions.
func (b *bench) traced() (output, error) {
	timed, warm := b.jobs()
	sys, err := b.setUp(warm, nil)
	if err != nil {
		return output{}, err
	}
	base, err := b.measure(sys, timed)
	sys.close()
	if err != nil {
		return output{}, err
	}
	for i, r := range base.results {
		if r.attempted && r.err != nil {
			b.fail("untraced pass, job %d %+v: %v", i, timed[i].spec, r.err)
		}
	}
	runtime.GC()
	debug.FreeOSMemory()

	tr := newTracer()
	if sys, err = b.setUp(warm, tr); err != nil {
		return output{}, err
	}
	tr.take() // warm-up requests are not part of the window
	win, err := b.measure(sys, timed)
	sys.close()
	if err != nil {
		return output{}, err
	}
	gateEntry, wjobs := tr.take()
	attempted, failed, sims, builds := b.check(timed, win)
	for _, r := range base.results {
		if r.attempted && r.err != nil {
			failed++
		}
	}

	frames := float64(win.frames())
	d := win.scrapes
	perFrame := func(key string) float64 { return ratio(d.of(key), frames) }
	busyMS := func(stages ...string) float64 {
		var s float64
		for _, st := range stages {
			s += d.of(stageBusy(st))
		}
		return ratio(s*1000, frames)
	}

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// fleet: gateway entry → worker entry, worker flush → client receipt.
	bySeed := map[int64]*workerJob{}
	for _, wj := range wjobs {
		bySeed[wj.seed] = wj
	}
	var route, relay []float64
	if b.w.fleet {
		for _, wj := range wjobs {
			if g, ok := gateEntry[wj.seed]; ok {
				route = append(route, ms(wj.entry.Sub(g)))
			}
		}
		for i, r := range win.results {
			wj := bySeed[timed[i].spec.Seed]
			if r.err != nil || wj == nil {
				continue
			}
			for f, at := range r.recv {
				if f < len(wj.flushes) {
					relay = append(relay, ms(at.Sub(wj.flushes[f])))
				}
			}
		}
	}
	routed := d.of("sccgate_worker_jobs_total")
	set("fleet.route_ms_p50", "ms", median(route))
	set("fleet.relay_ms_per_frame_p50", "ms", median(relay))
	set("fleet.affinity_hit_frac", "frac", ratio(routed-d.of("sccgate_affinity_overridden_total"), routed))
	set("fleet.retries", "count", d.of("sccgate_job_retries_total"))
	set("fleet.frames_discarded", "count", d.of("sccgate_frames_discarded_total"))

	// serve: handler wall time the job was not running is queue wait.
	var wall time.Duration
	var write time.Duration
	var firstFrame []float64
	for _, wj := range wjobs {
		wall += wj.wall
		write += wj.writeTime
		if !wj.firstWrite.IsZero() {
			firstFrame = append(firstFrame, ms(wj.firstWrite.Sub(wj.entry)))
		}
	}
	for i, j := range timed {
		wj := bySeed[j.spec.Seed]
		if j.spec.Mode == serve.ModeRender && wj != nil && len(wj.flushes) != j.spec.Frames+1 {
			b.fail("job %d: worker flushed %d times for %d frames: the ResponseWriter wrapper changed the stream", i, len(wj.flushes), j.spec.Frames)
		}
	}
	set("serve.queue_wait_ms_mean", "ms", ratio(ms(wall)-d.of("sccserve_job_busy_seconds_total")*1000, float64(len(wjobs))))
	set("serve.first_frame_ms_p50", "ms", median(firstFrame))
	set("serve.transfer_busy_ms_per_frame", "ms", busyMS("transfer"))
	set("serve.write_ms_per_frame", "ms", ratio(ms(write), frames))

	// render and rcache, from the workers' counters.
	set("render.busy_ms_per_frame", "ms", busyMS("render"))
	set("render.tris_setup_per_frame", "count", perFrame("sccserve_render_tris_setup_total"))
	set("render.tris_binned_per_frame", "count", perFrame("sccserve_render_tris_binned_total"))
	set("render.tiles_touched_per_frame", "count", perFrame("sccserve_render_tiles_touched_total"))
	set("render.bins_rejected_frac", "frac", ratio(d.of("sccserve_render_bins_rejected_total"), d.of("sccserve_render_tris_binned_total")))
	set("rcache.hit_frac", "frac", win.hitFrac())
	set("rcache.evictions_per_job", "count", ratio(d.of("sccserve_cache_evictions_total"), float64(attempted)))

	// filters: the fused tail's busy time is split across its stages by
	// the cost model, so filters.tail_ms_per_frame is attributed, not
	// measured per stage.
	set("filters.sepia_ms_per_frame", "ms", busyMS("sepia"))
	set("filters.blur_ms_per_frame", "ms", busyMS("blur"))
	set("filters.tail_ms_per_frame", "ms", busyMS("scratch", "flicker", "swap"))

	// codec and core: timed replays through the layer functions.
	rp, err := b.replay(timed, b.reference())
	if err != nil {
		return output{}, err
	}
	set("codec.png_encode_ms_per_frame", "ms", ratio(ms(rp.pngEncode), rp.pngFrames))
	set("codec.png_bytes_per_frame", "B", ratio(rp.pngBytes, rp.pngFrames))
	set("codec.delta_encode_ms_per_frame", "ms", ratio(ms(rp.deltaEncode), rp.deltaFrames))
	set("codec.delta_decode_ms_per_frame", "ms", ratio(ms(rp.deltaDecode), rp.deltaFrames))
	set("codec.delta_alloc_kb_per_frame", "KiB", ratio(rp.deltaAlloc/1024, rp.deltaFrames))
	set("codec.delta_bytes_per_frame", "B", ratio(rp.deltaBytes, rp.deltaFrames))
	set("codec.delta_keyframe_frac", "frac", ratio(rp.keyframes, rp.deltaFrames))
	set("core.exec_ms_per_frame", "ms", ratio(ms(rp.exec), rp.execFrames))
	set("core.alloc_kb_per_job", "KiB", ratio(rp.execAlloc/1024, rp.execJobs))

	// sim: direct core.Simulate and core.BuildWorkload, and what serving
	// a simulate job adds on top of the simulation.
	var simMS, overhead []float64
	for _, c := range sims {
		simMS = append(simMS, ms(c.elapsed))
	}
	for i, j := range timed {
		if c, ok := sims[simSpec(j.spec)]; ok && win.results[i].err == nil {
			overhead = append(overhead, ms(win.results[i].latency-c.elapsed))
		}
	}
	var buildMS []float64
	for _, bd := range builds {
		buildMS = append(buildMS, ms(bd))
	}
	set("sim.simulate_ms_p50", "ms", median(simMS))
	set("sim.build_workload_ms", "ms", mean(buildMS))
	set("sim.serve_overhead_ms_p50", "ms", median(overhead))

	// go runtime over the traced window.
	g0, g1 := win.gc[0], win.gc[1]
	set("go.gc_cycles_per_frame", "count", ratio(g1.cycles-g0.cycles, frames))
	set("go.gc_cpu_frac", "frac", ratio(g1.gcCPU-g0.gcCPU, (g1.totalCPU-g0.totalCPU)-(g1.idleCPU-g0.idleCPU)))

	var verify time.Duration
	for _, r := range win.results {
		verify += r.verify
	}
	set("client.verify_ms_per_frame", "ms", ratio(ms(verify), frames))
	baseFPS := float64(base.frames()) / base.wall.Seconds()
	tracedFPS := frames / win.wall.Seconds()
	set("trace.overhead_frac", "frac", 1-ratio(tracedFPS, baseFPS))

	fmt.Printf("perfbench: traced jobs=%d failed=%d frames=%.0f wall=%.3fs untraced_wall=%.3fs (stolen time excluded) samples: route=%d relay=%d first_frame=%d simulate=%d replay_frames=%.0f\n",
		attempted, failed, frames, win.wall.Seconds(), base.wall.Seconds(), len(route), len(relay), len(firstFrame), len(simMS), rp.execFrames)
	report(m)
	return output{Correct: len(b.problems) == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// replayResult sums the timed layer replays.
type replayResult struct {
	exec                                time.Duration
	execFrames, execJobs, execAlloc     float64
	pngEncode                           time.Duration
	pngFrames, pngBytes                 float64
	deltaEncode, deltaDecode            time.Duration
	deltaFrames, deltaBytes, deltaAlloc float64
	keyframes                           float64
}

// replay runs a prefix of the render job list straight through
// core.ExecContext — with the serve layer's observer hooks, its own
// render cache and frame pool, a sink that does nothing — and then times
// the stream codec the workload uses on the frames those jobs produce.
// The cache is warmed first where the served workload runs warm.
func (b *bench) replay(timed []job, ref *reference) (replayResult, error) {
	var rp replayResult
	var jobs []job
	n := 0
	for _, j := range timed {
		if n >= replayFrames {
			break
		}
		if j.spec.Mode == serve.ModeRender {
			jobs = append(jobs, j)
			n += j.spec.Frames
		}
	}
	if len(jobs) == 0 {
		return rp, nil
	}
	cache := rcache.New(256 << 20)
	pool := frame.NewPool()
	run := func(j job, sink func(int, *frame.Image)) error {
		es := execSpec(j.spec)
		es.FrameCache, es.SceneKey, es.Pool = cache, ref.sceneKey, pool
		es.Observer = core.ExecObserver{
			OnStageBusy:   func(core.StageKind, int, time.Duration) {},
			OnRenderStats: func(int, render.Stats) {},
		}
		_, err := core.ExecContext(context.Background(), es, ref.tree, ref.cameras(j.spec), sink)
		return err
	}
	if b.w.delta {
		for _, j := range jobs {
			if err := run(j, nil); err != nil {
				return rp, err
			}
		}
	}
	runtime.GC()
	a0 := totalAlloc()
	for _, j := range jobs {
		t0 := time.Now()
		if err := run(j, func(int, *frame.Image) {}); err != nil {
			return rp, err
		}
		rp.exec += time.Since(t0)
		rp.execFrames += float64(j.spec.Frames)
		rp.execJobs++
	}
	rp.execAlloc = float64(totalAlloc() - a0)

	var buf bytes.Buffer
	for _, j := range jobs {
		var imgs []*frame.Image
		if err := run(j, func(_ int, img *frame.Image) { imgs = append(imgs, img.Clone()) }); err != nil {
			return rp, err
		}
		if !b.w.delta {
			for _, img := range imgs {
				buf.Reset()
				t0 := time.Now()
				if err := img.WritePNG(&buf); err != nil {
					return rp, err
				}
				rp.pngEncode += time.Since(t0)
				rp.pngBytes += float64(buf.Len())
				rp.pngFrames++
			}
			continue
		}
		w, h := j.spec.Width, j.spec.Height
		payloads := make([][]byte, len(imgs))
		prev := make([]byte, w*h*4)
		a0 := totalAlloc()
		for f, img := range imgs {
			t0 := time.Now()
			p, err := codec.FrameDeltaEncode(prev, img.Pix, w, h)
			if err != nil {
				return rp, err
			}
			rp.deltaEncode += time.Since(t0)
			payloads[f], prev = p, img.Pix
		}
		chain := make([]byte, w*h*4)
		for f, p := range payloads {
			t0 := time.Now()
			raw, err := codec.FrameDeltaDecode(chain, p, w, h)
			if err != nil {
				return rp, err
			}
			rp.deltaDecode += time.Since(t0)
			if !bytes.Equal(raw, imgs[f].Pix) {
				return rp, fmt.Errorf("delta round trip of frame %d of %+v differs", f, j.spec)
			}
			chain = raw
			rp.deltaBytes += float64(len(p))
			if p[0] == keyframeScheme {
				rp.keyframes++
			}
			rp.deltaFrames++
		}
		rp.deltaAlloc += float64(totalAlloc() - a0)
	}
	return rp, nil
}
