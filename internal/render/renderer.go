package render

import (
	"sccpipe/internal/band"
	"sccpipe/internal/frame"
)

// Stats aggregates the measurable work of one render call; the simulation's
// render cost model and the online planner consume these counts.
type Stats struct {
	CullStats
	Filled     int64 // pixels written after the depth test
	Candidates int64 // pixels covered before the depth test
	TrisDrawn  int   // triangles submitted to the rasterizer
	// Tiled-path counters (zero on the serial path).
	TrisSetup    int   // screen triangles in the setup buffer after clip + fan
	TrisBinned   int64 // triangle→tile bin insertions (≥ TrisSetup)
	TilesTouched int   // tiles with a non-empty bin
	BinsRejected int64 // bin entries skipped by the coarse per-tile z test
}

// Add accumulates another render's counters (for per-frame totals).
func (s *Stats) Add(o Stats) {
	s.NodesVisited += o.NodesVisited
	s.TrisAccepted += o.TrisAccepted
	s.Filled += o.Filled
	s.Candidates += o.Candidates
	s.TrisDrawn += o.TrisDrawn
	s.TrisSetup += o.TrisSetup
	s.TrisBinned += o.TrisBinned
	s.TilesTouched += o.TilesTouched
	s.BinsRejected += o.BinsRejected
}

// RasterMode selects how RenderStrip turns the culled triangle list into
// pixels. All modes produce byte-identical pixels and identical Filled
// counts; they differ in how the work is scheduled and how much redundant
// per-triangle setup they perform.
type RasterMode int

const (
	// RasterAuto picks RasterTiled when the band pool is parallel and the
	// strip is tall enough to split, RasterSerial otherwise.
	RasterAuto RasterMode = iota
	// RasterSerial is the single-goroutine path: one pass over the culled
	// list through the reusable Rasterizer.
	RasterSerial
	// RasterTiled is the binned path: one setup pass over the culled list,
	// triangles binned to row-tiles, tiles rasterized by the band pool
	// under work stealing, with coarse per-tile z rejection.
	RasterTiled
)

// Renderer renders views of an octree-organized scene. It is not safe for
// concurrent use; each pipeline's render stage owns one instance (as each
// SCC renderer core does in the paper). Its culling scratch, setup buffer,
// depth buffers and bins are reused across frames, so a walkthrough render
// loop is allocation-free in steady state.
type Renderer struct {
	Tree *Octree
	// Bands, when set to a parallel pool, spreads rasterization of each
	// strip across the pool. Culling and triangle setup run once on the
	// caller; workers then claim row-tiles whose pixels depend only on the
	// shared read-only setup buffer, so the output is byte-identical to the
	// serial path. Nil or a serial pool keeps the single-goroutine path.
	Bands *band.Pool
	// Mode overrides the rasterization strategy; zero value is RasterAuto.
	Mode RasterMode
	// TileRows fixes the row height of binning tiles (RasterTiled); 0 sizes
	// tiles automatically from the strip height and pool parallelism.
	TileRows int
	// NoCoarseZ disables the per-tile occlusion test (for ablations; the
	// test is conservative and never changes pixels or Filled, only skips
	// provably occluded bin entries).
	NoCoarseZ bool

	culled []int32     // reusable scratch for culling results
	rast   Rasterizer  // reusable depth buffer + clip scratch (serial path)
	tiled  tiledRaster // reusable setup buffer + tiles (tiled path)
}

// minRenderBandRows keeps parallel rasterization from engaging on strips
// too short to split profitably.
const minRenderBandRows = 16

// NewRenderer wraps a built scene octree.
func NewRenderer(tree *Octree) *Renderer { return &Renderer{Tree: tree} }

// RenderStrip renders screen rows [y0, y0+img.H) of a fullW×fullH frame
// into img: frustum-cull with the strip sub-frustum, then rasterize the
// survivors with the full-frame projection so strips tile seamlessly. The
// octree is traversed front to back (near leaves emit first) so early
// triangles occlude later ones, which both cuts depth-test survivors and
// powers the tiled path's coarse-z rejection. Every pixel of img is
// overwritten, so pooled buffers with stale contents are fine.
func (r *Renderer) RenderStrip(cam Camera, img *frame.Image, fullW, fullH, y0 int) Stats {
	cull := cam.StripFrustum(fullW, fullH, y0, y0+img.H)
	var st Stats
	r.culled, st.CullStats = r.Tree.CullFrontToBack(cull, cam.Eye, r.culled[:0])
	vp := cam.ViewProjection(fullW, fullH)
	st.TrisDrawn = len(r.culled)

	mode := r.Mode
	if mode == RasterAuto {
		if r.Bands.Parallelism() > 1 && img.H >= minRenderBandRows {
			mode = RasterTiled
		} else {
			mode = RasterSerial
		}
	}
	switch mode {
	case RasterTiled:
		r.renderTiled(vp, img, fullW, fullH, y0, &st)
	default:
		r.rast.Reset(img, fullW, fullH, y0)
		for _, ti := range r.culled {
			r.rast.DrawTriangle(vp, r.Tree.Triangles[ti])
		}
		st.Filled = r.rast.Filled
		st.Candidates = r.rast.Candidates
	}
	return st
}

// renderTiled is the binned path: one setup pass over the culled list into
// the reusable setup buffer, binning into row-tiles, then a work-stealing
// parallel pass where each band-pool lane claims tiles. See tiledRaster for
// the ownership and determinism rules.
func (r *Renderer) renderTiled(vp Mat4, img *frame.Image, fullW, fullH, y0 int, st *Stats) {
	tr := &r.tiled
	tr.setups = tr.setups[:0]
	for _, ti := range r.culled {
		tr.setups = appendTriSetups(tr.setups, vp, r.Tree.Triangles[ti], tr.poly[:0], fullW, fullH, y0, y0+img.H)
	}
	st.TrisSetup = len(tr.setups)

	workers := r.Bands.Parallelism()
	tileRows := r.TileRows
	if tileRows <= 0 {
		// Aim for ~4 tiles per lane so work stealing can absorb dense
		// regions, without letting tiles shrink into pure overhead.
		tileRows = img.H / (4 * workers)
		if tileRows < 4 {
			tileRows = 4
		}
	}
	if tileRows > img.H {
		tileRows = img.H
	}
	tr.prepare(img, y0, tileRows)
	st.TrisBinned, st.TilesTouched = tr.bin(tileRows)
	tr.coarseZ = !r.NoCoarseZ
	tr.run(r.Bands, workers)
	for i := 0; i < tr.nTiles; i++ {
		st.Filled += tr.tiles[i].filled
		st.Candidates += tr.tiles[i].cand
	}
	st.BinsRejected = tr.rejected
}

// RenderFrame renders the whole frame (a strip spanning every row).
func (r *Renderer) RenderFrame(cam Camera, img *frame.Image) Stats {
	return r.RenderStrip(cam, img, img.W, img.H, 0)
}

// CullOnly performs just the frustum-culling traversal for the given strip,
// for callers (like the simulation cost model) that need traversal work
// without pixel output. It uses the same front-to-back traversal as
// RenderStrip so the reported node counts match a real render exactly.
func (r *Renderer) CullOnly(cam Camera, fullW, fullH, y0, y1 int) CullStats {
	var st CullStats
	r.culled, st = r.Tree.CullFrontToBack(cam.StripFrustum(fullW, fullH, y0, y1), cam.Eye, r.culled[:0])
	return st
}
