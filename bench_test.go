package sccpipe

// One benchmark per table and figure of the paper's evaluation: each
// iteration regenerates the corresponding experiment's data on a shortened
// (64-frame) walkthrough. Shapes and relative numbers are identical to the
// full 400-frame runs (everything scales linearly in frames); run
// cmd/paperrepro for full-length output.
//
// Substrate micro-benchmarks (mesh transfers, filters, renderer, DES
// engine) and design-ablation benchmarks follow the figure benchmarks.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sccpipe/internal/band"
	"sccpipe/internal/codec"
	"sccpipe/internal/core"
	"sccpipe/internal/des"
	"sccpipe/internal/experiments"
	"sccpipe/internal/filters"
	"sccpipe/internal/fleet"
	"sccpipe/internal/frame"
	"sccpipe/internal/netfaults"
	"sccpipe/internal/pipe"
	"sccpipe/internal/plan"
	"sccpipe/internal/rcache"
	"sccpipe/internal/rcce"
	"sccpipe/internal/render"
	"sccpipe/internal/scc"
	"sccpipe/internal/scene"
	"sccpipe/internal/serve"
	"sccpipe/internal/viz"
)

// benchSetup is the shortened walkthrough shared by the figure benchmarks.
func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.Frames = 64
	return s
}

// warm pre-builds the cached workload so iterations measure simulation
// only.
func warm(b *testing.B, s experiments.Setup) {
	b.Helper()
	experiments.Workload(s)
	b.ResetTimer()
}

func BenchmarkFig8StageProfile(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9OneRenderer(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10NRenderers(b *testing.B) {
	s := benchSetup()
	experiments.Workload(s).StripStats(7)
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11MCPCRenderer(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig11(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12ImageSizes(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig12(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Cluster(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig13(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14PowerTrace(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig14(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15IdleTimes(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig15(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16FastBlur(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig16(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17DVFSPower(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig17(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnergyComparison(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEnergy(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLocalMemory(b *testing.B) {
	s := benchSetup()
	warm(b, s)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblation(s); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks

func BenchmarkSimulateBestConfig(b *testing.B) {
	s := benchSetup()
	wl := experiments.Workload(s)
	spec := core.Spec{Frames: s.Frames, Width: s.Width, Height: s.Height,
		Pipelines: 5, Renderer: core.HostRenderer}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(spec, wl, core.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDESEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := des.NewEngine()
		q := des.NewQueue(eng, 1)
		eng.Spawn("producer", func(p *des.Proc) {
			for j := 0; j < 1000; j++ {
				p.Wait(1)
				q.Put(p, j)
			}
		})
		eng.Spawn("consumer", func(p *des.Proc) {
			for j := 0; j < 1000; j++ {
				q.Get(p)
			}
		})
		eng.Run()
	}
	b.ReportMetric(float64(b.N)*2000, "events/op")
}

func BenchmarkRCCESendRecv(b *testing.B) {
	eng := des.NewEngine()
	chip := scc.New(eng, scc.DefaultConfig())
	comm := rcce.NewComm(chip, 1)
	n := b.N
	eng.Spawn("sender", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			comm.Send(p, 0, 24, nil, 256*1024)
		}
	})
	eng.Spawn("receiver", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			comm.Recv(p, 24, 0)
		}
	})
	b.ResetTimer()
	eng.Run()
}

func BenchmarkMeshMemAccess(b *testing.B) {
	eng := des.NewEngine()
	chip := scc.New(eng, scc.DefaultConfig())
	n := b.N
	eng.Spawn("reader", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			chip.MemRead(p, 47, 64*1024)
		}
	})
	b.ResetTimer()
	eng.Run()
}

func benchImage(w, h int) *frame.Image {
	img := frame.New(w, h)
	rng := rand.New(rand.NewSource(1))
	rng.Read(img.Pix)
	return img
}

// benchFilter measures one in-place kernel at the standard 512×512 size.
func benchFilter(b *testing.B, fn func(*frame.Image)) {
	b.Helper()
	img := benchImage(512, 512)
	b.SetBytes(int64(img.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(img)
	}
}

// The optimized kernels and their paper-literal references are benchmarked
// in pairs; the committed BENCH_pipeline.json carries both so the speedup
// of the memory-traffic rewrite is on record next to the absolute numbers.

func BenchmarkFilterSepia(b *testing.B)          { benchFilter(b, filters.Sepia) }
func BenchmarkFilterSepiaReference(b *testing.B) { benchFilter(b, filters.SepiaReference) }

func BenchmarkFilterBlur(b *testing.B)          { benchFilter(b, filters.Blur) }
func BenchmarkFilterBlurReference(b *testing.B) { benchFilter(b, filters.BlurReference) }

func BenchmarkFilterSwap(b *testing.B)          { benchFilter(b, filters.Swap) }
func BenchmarkFilterSwapReference(b *testing.B) { benchFilter(b, filters.SwapReference) }

func BenchmarkFilterFlicker(b *testing.B) {
	benchFilter(b, func(img *frame.Image) { filters.FlickerBy(img, 0.05) })
}

func BenchmarkFilterFlickerReference(b *testing.B) {
	benchFilter(b, func(img *frame.Image) { filters.FlickerByReference(img, 0.05) })
}

func BenchmarkFilterScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchFilter(b, func(img *frame.Image) { filters.Scratch(img, rng) })
}

func BenchmarkFilterScratchReference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchFilter(b, func(img *frame.Image) { filters.ScratchReference(img, rng) })
}

// The tail-chain pair measures what stage fusion buys on the post-blur
// run of per-pixel filters (sepia → scratch → flicker → swap): the
// unfused variant walks the frame once per filter, the fused one applies
// all four kernels in a single read-modify-write pass. Both run on a
// rendered city frame — flat-shaded geometry gives the sepia memo the run
// lengths real frames have, which random noise would hide — and both draw
// the scratch/flicker parameters once, so the measured work is identical.
// Each iteration restores the frame from a pristine copy; that memmove is
// charged to both sides equally.

func benchRenderedImage() *frame.Image {
	tree := render.BuildOctree(scene.City(scene.DefaultConfig()))
	cams := render.Walkthrough(16, tree.Bounds())
	img := frame.New(512, 512)
	render.NewRenderer(tree).RenderFrame(cams[3], img)
	return img
}

func BenchmarkFilterTailChainUnfused(b *testing.B) {
	src := benchRenderedImage()
	img := src.Clone()
	rng := rand.New(rand.NewSource(7))
	sp := filters.DrawScratchParams(rng, img.W)
	delta := filters.DrawFlickerDelta(rng)
	b.SetBytes(int64(img.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(img.Pix, src.Pix)
		filters.Sepia(img)
		filters.ScratchWith(img, sp)
		filters.FlickerBy(img, delta)
		filters.Swap(img)
	}
}

func BenchmarkFilterTailChainFused(b *testing.B) {
	src := benchRenderedImage()
	img := src.Clone()
	rng := rand.New(rand.NewSource(7))
	sp := filters.DrawScratchParams(rng, img.W)
	delta := filters.DrawFlickerDelta(rng)
	var fz filters.Fused
	b.SetBytes(int64(img.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(img.Pix, src.Pix)
		fz.Reset()
		fz.AddSepia()
		fz.AddScratch(sp)
		fz.AddFlicker(delta)
		fz.AddSwap()
		fz.Apply(img)
	}
}

// BenchmarkFrameSplitAssembleViews measures the zero-copy strip round trip
// the one-renderer pipeline runs per frame: view split, then the
// view-aware reassembly (a no-op copy). Its copying counterpart is the
// pre-rewrite per-frame cost.
func BenchmarkFrameSplitAssembleViews(b *testing.B) {
	img := benchImage(512, 512)
	b.SetBytes(int64(img.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strips, err := frame.SplitRowsView(img, 4)
		if err != nil {
			b.Fatal(err)
		}
		frame.AssembleInto(img, strips)
	}
}

func BenchmarkFrameSplitAssembleCopy(b *testing.B) {
	img := benchImage(512, 512)
	dst := frame.New(512, 512)
	b.SetBytes(int64(img.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strips, err := frame.SplitRows(img, 4)
		if err != nil {
			b.Fatal(err)
		}
		frame.AssembleInto(dst, strips)
	}
}

func BenchmarkRenderFrame(b *testing.B) {
	tree := render.BuildOctree(scene.City(scene.DefaultConfig()))
	cams := render.Walkthrough(16, tree.Bounds())
	r := render.NewRenderer(tree)
	img := frame.New(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RenderFrame(cams[i%len(cams)], img)
	}
}

// BenchmarkRenderFrameTiled is BenchmarkRenderFrame on the tiled, binned
// raster path with the default band pool — the committed pair records what
// tiling buys on a whole frame.
func BenchmarkRenderFrameTiled(b *testing.B) {
	tree := render.BuildOctree(scene.City(scene.DefaultConfig()))
	cams := render.Walkthrough(16, tree.Bounds())
	r := render.NewRenderer(tree)
	r.Mode = render.RasterTiled
	r.Bands = band.Default()
	img := frame.New(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RenderFrame(cams[i%len(cams)], img)
	}
}

// BenchmarkRenderStrip compares the raster paths on one strip of the
// n-renderer configuration (the shape the pipeline actually renders):
// serial and the tiled binned path, each over a sparse and a dense city.
// Tiled runs on a 4-lane pool so the numbers isolate scheduling and setup
// overhead, not machine parallelism.
func BenchmarkRenderStrip(b *testing.B) {
	scenes := []struct {
		name string
		cfg  scene.Config
	}{
		{"small", scene.Config{Seed: 1, BlocksX: 8, BlocksZ: 8, BlockSize: 10, MaxHeight: 40, Landmarks: 4}},
		{"large", scene.DefaultConfig()},
	}
	modes := []struct {
		name string
		mode render.RasterMode
	}{
		{"serial", render.RasterSerial},
		{"tiled", render.RasterTiled},
	}
	for _, sc := range scenes {
		tree := render.BuildOctree(scene.City(sc.cfg))
		cams := render.Walkthrough(16, tree.Bounds())
		for _, m := range modes {
			b.Run(sc.name+"/"+m.name, func(b *testing.B) {
				r := render.NewRenderer(tree)
				r.Mode = m.mode
				if m.mode != render.RasterSerial {
					r.Bands = band.New(4)
				}
				const fullW, fullH, y0 = 512, 512, 128
				img := frame.New(fullW, 128)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.RenderStrip(cams[i%len(cams)], img, fullW, fullH, y0)
				}
			})
		}
	}
}

func BenchmarkExecPipelineReal(b *testing.B) {
	benchExecPipeline(b, false)
}

// BenchmarkExecPipelineRealNoFuse is the same run with plan-time stage
// fusion disabled (every filter its own stage goroutine) — the committed
// pair records what fusion buys end to end.
func BenchmarkExecPipelineRealNoFuse(b *testing.B) {
	benchExecPipeline(b, true)
}

func benchExecPipeline(b *testing.B, noFuse bool) {
	b.Helper()
	tree := render.BuildOctree(scene.City(scene.DefaultConfig()))
	spec := core.ExecSpec{Frames: 8, Width: 320, Height: 240, Pipelines: 4,
		Renderer: core.NRenderers, Seed: 1, NoFuse: noFuse}
	cams := render.Walkthrough(spec.Frames, tree.Bounds())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Exec(spec, tree, cams, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The planned-exec pair records what the profile-driven planner buys on
// real wall clock. The workload is deliberately mis-mapped for the static
// layout: the n-renderer configuration at k=6 on a small frame duplicates
// the whole-scene culling and triangle setup in every pipeline, so on a
// machine with few cores the static replication factor wastes most of its
// work. The planner sees the duplication in the cost profile (and the
// machine's parallel capacity in Workers) and picks the replication and
// fusion boundaries to match; pixels stay byte-identical per chosen k.
func benchExecPlanned(b *testing.B, planned bool) {
	b.Helper()
	tree := render.BuildOctree(scene.City(scene.DefaultConfig()))
	spec := core.ExecSpec{Frames: 6, Width: 256, Height: 192, Pipelines: 6,
		Renderer: core.NRenderers, Seed: 1}
	if planned {
		wl := core.BuildWorkload(tree, spec.Frames, spec.Width, spec.Height)
		pr := plan.ModelProfile(core.DefaultCostModel(), wl)
		p, err := plan.Compute(pr, plan.Config{Renderer: core.NRenderers, Height: spec.Height})
		if err != nil {
			b.Fatal(err)
		}
		p.ApplyExec(&spec, true)
		b.Logf("plan: %s", p)
	}
	cams := render.Walkthrough(spec.Frames, tree.Bounds())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Exec(spec, tree, cams, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecPipelinePlanStatic(b *testing.B)   { benchExecPlanned(b, false) }
func BenchmarkExecPipelinePlanProfiled(b *testing.B) { benchExecPlanned(b, true) }

// BenchmarkPlanCompute measures the planner search itself (every
// replication factor × fusion grouping × greedy worker assignment) — the
// cost the online controller pays per re-plan.
func BenchmarkPlanCompute(b *testing.B) {
	s := benchSetup()
	pr := plan.ModelProfile(core.DefaultCostModel(), experiments.Workload(s))
	cfg := plan.Config{Renderer: core.NRenderers, Height: s.Height, Workers: 48}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Compute(pr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheSimulator(b *testing.B) {
	h := scc.NewHierarchy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i*64) % (1 << 22))
	}
}

func BenchmarkOctreeCull(b *testing.B) {
	tree := render.BuildOctree(scene.City(scene.DefaultConfig()))
	cams := render.Walkthrough(16, tree.Bounds())
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = tree.Cull(cams[i%len(cams)].Frustum(512, 512), buf[:0])
	}
}

func BenchmarkCodecHuffmanRoundTrip(b *testing.B) {
	data := make([]byte, 64*1024)
	rng := rand.New(rand.NewSource(1))
	v := byte(0)
	for i := range data {
		if rng.Intn(6) == 0 {
			v += byte(rng.Intn(3))
		}
		data[i] = v
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := codec.HuffmanEncode(data)
		if _, err := codec.HuffmanDecode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaResidual measures the adaptive temporal delta codec on a
// pair of rendered frames — the per-frame encode+decode cost a worker and
// the gateway each pay on the delta stream path. "motion" is two
// consecutive orbit poses (keyframe-heavy regime); "hold" repeats one
// pose (pure-residual regime, the dwell camera's common case).
func BenchmarkDeltaResidual(b *testing.B) {
	tree := render.BuildOctree(scene.City(scene.DefaultConfig()))
	cams := render.Walkthrough(16, tree.Bounds())
	r := render.NewRenderer(tree)
	const w, h = 320, 240
	pairs := []struct {
		name       string
		prev, next render.Camera
	}{
		{"motion", cams[0], cams[1]},
		{"hold", cams[0], cams[0]},
	}
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			prev, cur := frame.New(w, h), frame.New(w, h)
			r.RenderFrame(p.prev, prev)
			r.RenderFrame(p.next, cur)
			b.SetBytes(int64(len(cur.Pix)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				payload, err := codec.FrameDeltaEncode(prev.Pix, cur.Pix, w, h)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := codec.FrameDeltaDecode(prev.Pix, payload, w, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecPipelineRealCacheHit is BenchmarkExecPipelineReal with a
// pre-warmed render cache: every strip render is served from cached
// pixels, so the gap between the two records what the cache saves on a
// repeated spec end to end.
func BenchmarkExecPipelineRealCacheHit(b *testing.B) {
	tree := render.BuildOctree(scene.City(scene.DefaultConfig()))
	spec := core.ExecSpec{Frames: 8, Width: 320, Height: 240, Pipelines: 4,
		Renderer: core.NRenderers, Seed: 1, FrameCache: rcache.New(256 << 20)}
	cams := render.Walkthrough(spec.Frames, tree.Bounds())
	if _, err := core.Exec(spec, tree, cams, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Exec(spec, tree, cams, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenericPipelineSim(b *testing.B) {
	mkChain := func() *pipe.Chain {
		return &pipe.Chain{
			Stages: []pipe.Stage{
				{Name: "a", CostRef: func(pipe.Item) float64 { return 0.002 }},
				{Name: "b", CostRef: func(pipe.Item) float64 { return 0.008 }},
				{Name: "c", CostRef: func(pipe.Item) float64 { return 0.003 }},
			},
			Feed: func(pl, seq int) (pipe.Item, bool) { return pipe.Item{Bytes: 32 * 1024}, true },
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mkChain().Simulate(pipe.SimSpec{Pipelines: 4, Items: 100, ItemBytes: 32 * 1024}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVizSplitAssemble(b *testing.B) {
	img := frame.New(512, 512)
	rand.New(rand.NewSource(1)).Read(img.Pix)
	b.SetBytes(int64(img.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := viz.NewAssembler(nil)
		for _, p := range viz.Split(img, uint32(i), 32*1024, nil) {
			if err := a.Feed(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRCCECollectiveBcast(b *testing.B) {
	eng := des.NewEngine()
	chip := scc.New(eng, scc.DefaultConfig())
	comm := rcce.NewComm(chip, 0)
	cores := make([]scc.CoreID, 16)
	for i := range cores {
		cores[i] = scc.CoreID(i * 3)
	}
	g := rcce.NewGroup(comm, cores)
	n := b.N
	for rank := range cores {
		rank := rank
		eng.Spawn("m", func(p *des.Proc) {
			for i := 0; i < n; i++ {
				var v any
				if rank == 0 {
					v = i
				}
				g.Bcast(p, rank, 0, v, 8192)
			}
		})
	}
	b.ResetTimer()
	eng.Run()
}

func BenchmarkTraceRecording(b *testing.B) {
	s := benchSetup()
	wl := experiments.Workload(s)
	spec := core.Spec{Frames: s.Frames, Width: s.Width, Height: s.Height,
		Pipelines: 3, Renderer: core.HostRenderer}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(spec, wl, core.SimOptions{Trace: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Serve-layer benchmarks

// BenchmarkServeConcurrentJobs measures job throughput through the serve
// admission queue: N parallel submitters drive small render jobs against a
// bounded worker pool over HTTP, seeding the perf trajectory for the
// service layer (queueing overhead, streaming encode, scheduling).
func BenchmarkServeConcurrentJobs(b *testing.B) {
	cfg := scene.DefaultConfig()
	cfg.BlocksX, cfg.BlocksZ = 4, 4
	s := serve.New(serve.Config{
		Workers:    4,
		QueueDepth: 1024, // deep queue: measure throughput, not rejection
		Scene:      scene.City(cfg),
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	job, err := json.Marshal(serve.JobSpec{
		Mode: serve.ModeRender, Frames: 2, Width: 64, Height: 48, Pipelines: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(4) // 4×GOMAXPROCS submitters against 4 workers
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(job))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("job status %d", resp.StatusCode)
			}
		}
	})
}

// benchFleet stands up a gateway over n in-process workers and returns
// the gateway's test server.
func benchFleet(b *testing.B, n int) *httptest.Server {
	b.Helper()
	cfg := scene.DefaultConfig()
	cfg.BlocksX, cfg.BlocksZ = 4, 4
	city := scene.City(cfg)
	urls := make([]string, n)
	for i := range urls {
		ws := httptest.NewServer(serve.New(serve.Config{
			Workers:    2,
			QueueDepth: 1024,
			Scene:      city,
		}))
		b.Cleanup(ws.Close)
		urls[i] = ws.URL
	}
	g, err := fleet.New(fleet.Config{Workers: urls, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	g.Start()
	b.Cleanup(g.Close)
	gs := httptest.NewServer(g)
	b.Cleanup(gs.Close)
	return gs
}

// BenchmarkGatewayRoutedJobs measures end-to-end render throughput through
// the fleet gateway — routing decision, relay re-framing, and the extra
// HTTP hop — against BenchmarkServeConcurrentJobs as the single-node
// baseline.
func BenchmarkGatewayRoutedJobs(b *testing.B) {
	gs := benchFleet(b, 2)
	job, err := json.Marshal(serve.JobSpec{
		Mode: serve.ModeRender, Frames: 2, Width: 64, Height: 48, Pipelines: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(gs.URL+"/jobs", "application/json", bytes.NewReader(job))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("job status %d", resp.StatusCode)
			}
		}
	})
}

// rtFunc adapts a function to http.RoundTripper for the netfaults bench.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// BenchmarkNetfaultsRoundTrip prices the chaos transport itself: per-rule
// hash consultation, sequence bookkeeping, and the body-wrapping fault
// readers over a canned 4KB response. This is pure overhead the gateway
// pays per forwarded request in `-chaos` mode, so it must stay cheap
// enough to leave chaos-run timings representative.
func BenchmarkNetfaultsRoundTrip(b *testing.B) {
	plan, err := netfaults.ParsePlan(
		"seed=5,lag=0.1:1ns,drop=0.1,reset=0.15,corrupt=0.1,truncate=0.1,loris=0.02:1ns")
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xab}, 4096)
	tr, err := netfaults.New(*plan, rtFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK,
			Body: io.NopCloser(bytes.NewReader(payload))}, nil
	}))
	if err != nil {
		b.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://worker:8344/jobs", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			continue // injected drop/partition: still a measured decision
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkGatewayRegister measures the dynamic-membership hot path: a
// worker's heartbeat POST /register against a live gateway, which after
// the first call is always a lease renewal. Heartbeats arrive from every
// dynamic worker at its renew cadence, so this path must stay far off
// the job-relay critical path's cost scale.
func BenchmarkGatewayRegister(b *testing.B) {
	ws := httptest.NewServer(serve.New(serve.Config{Workers: 1, Scene: nil}))
	b.Cleanup(ws.Close)
	g, err := fleet.New(fleet.Config{HealthInterval: time.Hour, LeaseTTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	g.Start()
	b.Cleanup(g.Close)
	gs := httptest.NewServer(g)
	b.Cleanup(gs.Close)
	body, err := json.Marshal(serve.RegisterRequest{URL: ws.URL})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(gs.URL+"/register", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("register status %d", resp.StatusCode)
		}
	}
}

// BenchmarkGatewaySimulateJobs pushes tiny buffered simulate jobs through
// the gateway: the job body is small and the worker's compute brief, so
// the number is dominated by the gateway's own routing and forwarding
// overhead.
func BenchmarkGatewaySimulateJobs(b *testing.B) {
	gs := benchFleet(b, 2)
	job, err := json.Marshal(serve.JobSpec{
		Mode: serve.ModeSimulate, Frames: 2, Width: 64, Height: 48, Pipelines: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(gs.URL+"/jobs", "application/json", bytes.NewReader(job))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("job status %d", resp.StatusCode)
			}
		}
	})
}
