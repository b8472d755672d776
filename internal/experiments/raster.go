package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"time"

	"sccpipe/internal/band"
	"sccpipe/internal/core"
	"sccpipe/internal/frame"
	"sccpipe/internal/render"
)

// RasterRun is one worker count of the rasterizer ablation: the tiled
// (setup-once, binned) path timed on real walkthrough renders, plus the
// cost model's prediction of what tiling should buy at that width.
type RasterRun struct {
	Workers int
	// TiledSeconds is wall-clock seconds for the whole walkthrough.
	TiledSeconds float64
	// MeasuredSpeedup is serial seconds / tiled seconds; PredictedSpeedup
	// is the DES cost model's serial work divided by the tiled path's
	// fixed + scaled/workers decomposition (RenderFixedWork/RenderScaledWork).
	MeasuredSpeedup  float64
	PredictedSpeedup float64
}

// RasterResult is the tiled-rasterization ablation: the serial oracle and
// the tiled-binned path on the same walkthrough, byte-compared frame by
// frame. Unlike the figure
// experiments this one executes real renders and reports wall time, so
// its numbers vary with the host; the prediction column is the part the
// DES model claims.
type RasterResult struct {
	Frames, Width, Height int
	SerialSeconds         float64
	Runs                  []RasterRun
	// SerialStats and TiledStats sum the renderer's work counters over
	// the walkthrough (tiled counters from the widest pool).
	SerialStats render.Stats
	TiledStats  render.Stats
}

func (r RasterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tiled rasterization ablation — real renders, %d frames %d×%d (all outputs byte-identical)\n",
		r.Frames, r.Width, r.Height)
	fmt.Fprintf(&b, "serial oracle %8.3fs\n", r.SerialSeconds)
	fmt.Fprintf(&b, "%-8s %10s %10s %11s\n", "workers", "tiled s", "measured", "predicted")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%-8d %10.3f %9.2fx %10.2fx\n",
			run.Workers, run.TiledSeconds, run.MeasuredSpeedup, run.PredictedSpeedup)
	}
	st, ss := r.TiledStats, r.SerialStats
	fmt.Fprintf(&b, "tiled counters: tris setup %d, binned %d, tiles touched %d, bins rejected %d\n",
		st.TrisSetup, st.TrisBinned, st.TilesTouched, st.BinsRejected)
	saved := 0.0
	if ss.Candidates > 0 {
		saved = 100 * float64(ss.Candidates-st.Candidates) / float64(ss.Candidates)
	}
	fmt.Fprintf(&b, "depth-test candidates: serial %d, tiled %d (span tightening + coarse-z saved %.1f%%)\n",
		ss.Candidates, st.Candidates, saved)
	return b.String()
}

// WriteCSV emits variant, workers, seconds, measured and predicted speedup.
func (r RasterResult) WriteCSV(w io.Writer) error {
	rows := [][]string{{"variant", "workers", "seconds", "measured_speedup", "predicted_speedup"}}
	rows = append(rows, []string{"serial", "1", ftoa(r.SerialSeconds), "1", "1"})
	for _, run := range r.Runs {
		rows = append(rows, []string{"tiled", itoa(run.Workers), ftoa(run.TiledSeconds),
			ftoa(run.MeasuredSpeedup), ftoa(run.PredictedSpeedup)})
	}
	return writeAll(w, rows)
}

// rasterMaxFrames caps the walkthrough length of this wall-clock
// experiment: past a few dozen frames the extra renders only average the
// same measurement, and the default 400-frame setup would make `-exp all`
// render ~3600 real frames here.
const rasterMaxFrames = 48

// rasterPass renders the walkthrough once with the given raster mode and
// pool, returning wall seconds, the summed work counters, and a byte-level
// FNV-64a digest of every output frame (for oracle comparison).
func rasterPass(tree *render.Octree, cams []render.Camera, w, h int,
	mode render.RasterMode, pool *band.Pool) (float64, render.Stats, []uint64) {
	r := render.NewRenderer(tree)
	r.Mode = mode
	r.Bands = pool
	img := frame.New(w, h)
	var sum render.Stats
	sums := make([]uint64, len(cams))
	start := time.Now()
	for f, cam := range cams {
		st := r.RenderFrame(cam, img)
		sum.Add(st)
		d := fnv.New64a()
		d.Write(img.Pix)
		sums[f] = d.Sum64()
	}
	return time.Since(start).Seconds(), sum, sums
}

// RunRaster executes the rasterizer ablation: serial oracle, then the
// tiled-binned path across a band-worker sweep, with
// every frame byte-compared against the oracle (a digest mismatch is an
// error — the tiled path is only a win if it is exact).
func RunRaster(s Setup) (RasterResult, error) {
	if s.Frames > rasterMaxFrames {
		s.Frames = rasterMaxFrames
	}
	tree := Tree(s)
	cams := render.Walkthrough(s.Frames, tree.Bounds())
	out := RasterResult{Frames: s.Frames, Width: s.Width, Height: s.Height}

	var oracle []uint64
	out.SerialSeconds, out.SerialStats, oracle = rasterPass(
		tree, cams, s.Width, s.Height, render.RasterSerial, band.Serial)

	maxW := runtime.GOMAXPROCS(0)
	if maxW > 8 {
		maxW = 8
	}
	if maxW < 2 {
		maxW = 2
	}
	m := core.DefaultCostModel()
	for _, w := range []int{1, 2, 4, 8} {
		if w > maxW {
			break
		}
		pool := band.New(w)
		run := RasterRun{Workers: w}
		var st render.Stats
		var sums []uint64
		run.TiledSeconds, st, sums = rasterPass(tree, cams, s.Width, s.Height, render.RasterTiled, pool)
		if f := firstMismatch(oracle, sums); f >= 0 {
			return RasterResult{}, fmt.Errorf("tiled w=%d: frame %d differs from the serial oracle", w, f)
		}
		out.TiledStats = st
		run.MeasuredSpeedup = out.SerialSeconds / run.TiledSeconds
		// The model's claim: tiling leaves the fixed work (cull, setup,
		// binning) on one core and divides only the fill across workers.
		serialWork := m.RenderFixedWork(out.SerialStats) + m.RenderScaledWork(out.SerialStats)
		tiledWork := m.RenderFixedWork(st) + m.RenderScaledWork(st)/float64(w)
		if tiledWork > 0 {
			run.PredictedSpeedup = serialWork / tiledWork
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// firstMismatch returns the first index where the digest sequences differ,
// or -1 when they match.
func firstMismatch(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
