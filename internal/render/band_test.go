package render

import (
	"math/rand"
	"testing"

	"sccpipe/internal/band"
	"sccpipe/internal/frame"
)

var bandScene = BuildOctree(randTris(rand.New(rand.NewSource(23)), 400))

// Parallel rasterization must be pixel-identical to the serial path for
// every pool size, full frames and strips alike: the tiled mode keeps
// identical pixels, Filled and cull counts (Candidates may only shrink,
// via coarse-z).
func TestRenderStripBandsMatchSerial(t *testing.T) {
	const fullW, fullH = 96, 128
	cams := Walkthrough(3, bandScene.Bounds())
	serial := NewRenderer(bandScene)
	for _, pool := range []*band.Pool{band.Serial, band.New(2), band.New(3), band.New(8)} {
		banded := NewRenderer(bandScene)
		banded.Bands = pool
		banded.Mode = RasterTiled
		for _, strip := range [][2]int{{0, fullH}, {0, fullH / 3}, {fullH / 3, 2 * fullH / 3}, {fullH - 17, fullH}} {
			y0, y1 := strip[0], strip[1]
			for fi, cam := range cams {
				want := frame.New(fullW, y1-y0)
				got := frame.New(fullW, y1-y0)
				wantSt := serial.RenderStrip(cam, want, fullW, fullH, y0)
				gotSt := banded.RenderStrip(cam, got, fullW, fullH, y0)
				if !got.Equal(want) {
					t.Fatalf("tiled pool par=%d strip [%d,%d) frame %d: pixels differ from serial",
						pool.Parallelism(), y0, y1, fi)
				}
				if gotSt.CullStats != wantSt.CullStats || gotSt.TrisDrawn != wantSt.TrisDrawn ||
					gotSt.Filled != wantSt.Filled {
					t.Fatalf("tiled pool par=%d strip [%d,%d) frame %d: stats %+v vs serial %+v",
						pool.Parallelism(), y0, y1, fi, gotSt, wantSt)
				}
				if gotSt.Candidates > wantSt.Candidates || gotSt.Candidates < gotSt.Filled {
					t.Fatalf("tiled Candidates=%d outside [Filled=%d, serial=%d]",
						gotSt.Candidates, gotSt.Filled, wantSt.Candidates)
				}
			}
		}
	}
}

// Short strips fall back to the serial path rather than degenerate tiles.
func TestRenderStripShortFallback(t *testing.T) {
	r := NewRenderer(bandScene)
	r.Bands = band.New(8)
	cam := Walkthrough(1, bandScene.Bounds())[0]
	img := frame.New(64, 9) // under minRenderBandRows: serial path
	want := frame.New(64, 9)
	wantSt := NewRenderer(bandScene).RenderStrip(cam, want, 64, 64, 3)
	gotSt := r.RenderStrip(cam, img, 64, 64, 3)
	if !img.Equal(want) {
		t.Fatal("short-strip fallback differs from serial render")
	}
	if gotSt != wantSt {
		t.Fatalf("short-strip fallback stats %+v != serial %+v", gotSt, wantSt)
	}
	if gotSt.TilesTouched != 0 || gotSt.TrisBinned != 0 {
		t.Fatalf("short strip engaged the tiled path: %+v", gotSt)
	}
}

// A warmed parallel renderer does not allocate per frame.
func TestRenderStripBandsSteadyStateAllocs(t *testing.T) {
	r := NewRenderer(bandScene)
	r.Bands = band.New(4)
	r.Mode = RasterTiled
	cam := Walkthrough(1, bandScene.Bounds())[0]
	img := frame.New(128, 128)
	r.RenderStrip(cam, img, 128, 128, 0) // warm zbufs, bins, cull scratch
	avg := testing.AllocsPerRun(20, func() { r.RenderStrip(cam, img, 128, 128, 0) })
	if avg > 0 {
		t.Fatalf("tiled RenderStrip allocates %.1f objects per frame, want 0", avg)
	}
}
