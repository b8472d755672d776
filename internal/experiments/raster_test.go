package experiments

import (
	"strings"
	"testing"
)

func TestRasterAblationExactAndCounted(t *testing.T) {
	s := testSetup()
	s.Frames = 6 // real renders: keep the walkthrough short
	r, err := RunRaster(s)
	if err != nil {
		// RunRaster errors when a raster path diverges from the serial
		// oracle — that is the assertion this test exists for.
		t.Fatal(err)
	}
	if len(r.Runs) == 0 {
		t.Fatal("empty worker sweep")
	}
	if r.SerialSeconds <= 0 {
		t.Fatalf("serial oracle took %v s", r.SerialSeconds)
	}
	for _, run := range r.Runs {
		if run.TiledSeconds <= 0 {
			t.Errorf("w=%d: non-positive timings %+v", run.Workers, run)
		}
		if run.PredictedSpeedup <= 0 {
			t.Errorf("w=%d: predicted speedup %v", run.Workers, run.PredictedSpeedup)
		}
	}
	// The tiled path must have actually tiled: setups in the buffer, every
	// setup binned at least once, and no more depth-test candidates than
	// the serial path (span tightening and coarse-z only ever shrink them).
	if r.TiledStats.TrisSetup == 0 {
		t.Error("tiled pass recorded no triangle setups")
	}
	if r.TiledStats.TrisBinned < int64(r.TiledStats.TrisSetup) {
		t.Errorf("binned %d < setup %d", r.TiledStats.TrisBinned, r.TiledStats.TrisSetup)
	}
	if r.TiledStats.Candidates > r.SerialStats.Candidates {
		t.Errorf("tiled candidates %d > serial %d", r.TiledStats.Candidates, r.SerialStats.Candidates)
	}
	if r.TiledStats.Filled != r.SerialStats.Filled {
		t.Errorf("tiled filled %d != serial %d", r.TiledStats.Filled, r.SerialStats.Filled)
	}
	out := r.String()
	for _, want := range []string{"serial oracle", "tris setup", "byte-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q", want)
		}
	}
}
