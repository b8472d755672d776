package main

import (
	"math"
	"math/rand"

	"sccpipe/internal/core"
	"sccpipe/internal/serve"
)

// A job is one submission of a workload's fixed, seeded job list.
type job struct {
	spec serve.JobSpec
	// sample marks a job whose frames are kept and compared byte for byte
	// with core.ExecReference after the timed window.
	sample bool
}

// workload is one traffic mix. A run replays round(seconds × perSecond)
// jobs to completion, so every commit does the same work for the same
// seed and run length; perSecond was sized on a 2-vCPU Xeon so that a run
// measures about the requested seconds there.
type workload struct {
	// fleet routes jobs through a gateway over two workers; otherwise the
	// clients talk to one worker directly.
	fleet bool
	// delta asks for X-Frame-Encoding: delta streams.
	delta     bool
	perSecond float64
	// hitMin and hitMax bound the render-cache hit share a valid run may
	// show: outside them the workload no longer measures its layer.
	hitMin, hitMax float64
	// jobs builds the timed job list and the warm-up jobs run during
	// set-up.
	jobs func(rng *rand.Rand, n int) (timed, warm []job)
}

var workloads = map[string]*workload{
	"orbit-png": {
		perSecond: 18, hitMin: 0, hitMax: 0.02,
		jobs: orbitJobs,
	},
	"dwell-delta-fleet": {
		fleet: true, delta: true, perSecond: 9, hitMin: 0.9, hitMax: 1,
		jobs: dwellJobs,
	},
	"paper-sim": {
		perSecond: 50, hitMin: 0, hitMax: 1,
		jobs: simJobs,
	},
}

// orbitJobs spreads square frames over the paper's Fig. 12 range. Every
// job gets its own frame geometry: render-cache keys leave out the seed,
// so two jobs of one size would share frames and the workload would stop
// measuring the renderer. Sizes are stratified over the range and frame
// counts fall with size, so the mix of work is the same for every seed;
// the seed picks the size within each stratum, the frame-count jitter,
// the filter seeds and the order.
func orbitJobs(rng *rand.Rand, n int) (timed, warm []job) {
	const minSide, maxSide = 96, 400
	used := map[[2]int]bool{}
	unique := func(side int) (int, int) {
		w, h := side, side
		for used[[2]int{w, h}] {
			w++
		}
		used[[2]int{w, h}] = true
		return w, h
	}
	seeds := uniqueSeeds(rng)
	for i := 0; i < n; i++ {
		u := (float64(i) + rng.Float64()) / float64(n)
		w, h := unique(minSide + int(math.Round(u*(maxSide-minSide))))
		frames := int(math.Round(10-6*u)) + rng.Intn(3) - 1
		renderer := "one"
		if i%2 == 1 {
			renderer = "n"
		}
		timed = append(timed, job{spec: serve.JobSpec{
			Mode: serve.ModeRender, Camera: serve.CameraOrbit, Renderer: renderer,
			Frames: frames, Width: w, Height: h, Pipelines: 1 + i%4, Seed: seeds(),
		}})
	}
	rng.Shuffle(len(timed), func(i, j int) { timed[i], timed[j] = timed[j], timed[i] })
	for _, i := range rng.Perm(len(timed))[:min(3, len(timed))] {
		timed[i].sample = true
	}
	for i, side := range []int{128, 256, 384} {
		w, h := unique(side)
		warm = append(warm, job{spec: serve.JobSpec{
			Mode: serve.ModeRender, Camera: serve.CameraOrbit, Renderer: []string{"one", "n", "one"}[i],
			Frames: 6, Width: w, Height: h, Pipelines: 2 + i, Seed: seeds(),
		}})
	}
	return timed, warm
}

// dwellCatalog is the small set of content keys dwell-delta-fleet viewers
// ask for. Repeats differ only in seed, which the render cache and the
// gateway's affinity key both leave out, so after warm-up every render is
// a cache hit on the worker the gateway routes the key to. The entries
// share one frame size, so a stream's frame period does not depend on
// which entry it plays and the frame-gap median sits inside one cluster.
var dwellCatalog = []serve.JobSpec{
	{Frames: 6, Width: 320, Height: 240, Pipelines: 4, Renderer: "one"},
	{Frames: 6, Width: 320, Height: 240, Pipelines: 3, Renderer: "n"},
	{Frames: 12, Width: 320, Height: 240, Pipelines: 2, Renderer: "one"},
	{Frames: 12, Width: 320, Height: 240, Pipelines: 4, Renderer: "n"},
	{Frames: 18, Width: 320, Height: 240, Pipelines: 3, Renderer: "one"},
	{Frames: 18, Width: 320, Height: 240, Pipelines: 2, Renderer: "n"},
}

// dwellJobs cycles the catalog evenly with fresh seeds in a seeded order;
// warm-up asks for each entry once. One job of each entry is compared
// with the reference, so the sample covers the whole catalog.
func dwellJobs(rng *rand.Rand, n int) (timed, warm []job) {
	seeds := uniqueSeeds(rng)
	mk := func(e int) job {
		s := dwellCatalog[e]
		s.Mode, s.Camera, s.Seed = serve.ModeRender, serve.CameraDwell, seeds()
		return job{spec: s}
	}
	for e := range dwellCatalog {
		warm = append(warm, mk(e))
	}
	for i := 0; i < n; i++ {
		timed = append(timed, mk(i%len(dwellCatalog)))
		timed[i].sample = i < len(dwellCatalog)
	}
	rng.Shuffle(len(timed), func(i, j int) { timed[i], timed[j] = timed[j], timed[i] })
	return timed, warm
}

// simShapes are the walkthrough shapes paper-sim jobs simulate; the
// server builds one profiled workload per shape, during warm-up.
var simShapes = [][3]int{{100, 256, 256}, {100, 512, 512}, {60, 400, 400}}

// simJobs covers the paper's space — renderer × pipelines × arrangement,
// trace on and off — once per round, each round in a seeded order. The
// seed rotates which shape each cell simulates; cells of one renderer and
// pipeline count take every shape in turn, so the mix is the same for
// every seed.
func simJobs(rng *rand.Rand, n int) (timed, warm []job) {
	var grid []serve.JobSpec
	rot := rng.Intn(len(simShapes))
	for _, r := range []struct {
		name string
		rc   core.RendererConfig
	}{{"one", core.OneRenderer}, {"n", core.NRenderers}, {"host", core.HostRenderer}} {
		for p := 1; p <= core.MaxPipelines(r.rc); p++ {
			for a, arr := range []string{"unordered", "ordered", "flipped"} {
				for _, tr := range []bool{false, true} {
					sh := simShapes[(rot+p+a)%len(simShapes)]
					grid = append(grid, serve.JobSpec{
						Mode: serve.ModeSimulate, Renderer: r.name, Pipelines: p, Arrangement: arr, Trace: tr,
						Frames: sh[0], Width: sh[1], Height: sh[2],
					})
				}
			}
		}
	}
	rounds := max(1, int(math.Round(float64(n)/float64(len(grid)))))
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(grid)) {
			timed = append(timed, job{spec: grid[i]})
		}
	}
	for _, sh := range simShapes {
		warm = append(warm, job{spec: serve.JobSpec{
			Mode: serve.ModeSimulate, Renderer: "one", Pipelines: 2, Arrangement: "ordered",
			Frames: sh[0], Width: sh[1], Height: sh[2],
		}})
	}
	return timed, warm
}

// uniqueSeeds returns a generator of distinct positive job seeds. The
// traced run matches a job across layers by its seed.
func uniqueSeeds(rng *rand.Rand) func() int64 {
	seen := map[int64]bool{}
	return func() int64 {
		for {
			s := rng.Int63n(1<<40) + 1
			if !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
}
