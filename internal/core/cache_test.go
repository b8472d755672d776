package core

import (
	"testing"
	"time"

	"sccpipe/internal/faults"
	"sccpipe/internal/frame"
	"sccpipe/internal/rcache"
	"sccpipe/internal/render"
)

// collectCached runs spec through ExecContext with the given cache and
// returns cloned frames.
func collectCached(t *testing.T, spec ExecSpec, cache *rcache.Cache) []*frame.Image {
	t.Helper()
	spec.FrameCache = cache
	spec.SceneKey = 0xc0ffee
	cams := render.Walkthrough(spec.Frames, execScene.Bounds())
	out := make([]*frame.Image, spec.Frames)
	sink := func(f int, img *frame.Image) { out[f] = img.Clone() }
	if _, err := Exec(spec, execScene, cams, sink); err != nil {
		t.Fatal(err)
	}
	for f, img := range out {
		if img == nil {
			t.Fatalf("frame %d missing", f)
		}
	}
	return out
}

// TestCacheHitMatchesColdRender is the cache golden test: a warm run must
// be served entirely from the cache and stay byte-identical to the
// sequential reference, across renderer configs, pipeline counts, and
// tile modes. Run under -race via `make race`, this also exercises
// concurrent Do calls from the NRenderers strip producers.
func TestCacheHitMatchesColdRender(t *testing.T) {
	for _, rc := range []RendererConfig{OneRenderer, NRenderers} {
		for _, k := range []int{1, 3} {
			for _, tileRows := range []int{0, 8} {
				spec := execSpecForTest(k, rc)
				spec.TileRows = tileRows
				want := collect(t, spec, false) // sequential oracle, no cache

				cache := rcache.New(64 << 20)
				cold := collectCached(t, spec, cache)
				st := cache.Stats()
				if st.Hits != 0 || st.Misses == 0 {
					t.Fatalf("%v k=%d tile=%d cold stats %+v", rc, k, tileRows, st)
				}
				warm := collectCached(t, spec, cache)
				st = cache.Stats()
				// Every render in the warm run must be a hit: misses did not
				// move, hits count one per render call.
				if st.Hits != st.Misses {
					t.Fatalf("%v k=%d tile=%d warm run not fully cached: %+v", rc, k, tileRows, st)
				}
				// A run with faults injected runs the same program: it
				// renders through the cache too, and every render hits.
				chaos := spec
				chaos.Faults = faults.MustInjector(faults.Plan{Seed: 3, Rules: []faults.Rule{
					{Kind: faults.KindTransient, Pipeline: faults.Any, Seq: faults.Any, Prob: 0.3},
				}})
				chaos.Recovery = &faults.RecoveryPolicy{Backoff: time.Microsecond, MaxBackoff: 50 * time.Microsecond}
				faulted := collectCached(t, chaos, cache)
				if st2 := cache.Stats(); st2.Misses != st.Misses || st2.Hits != 2*st.Hits {
					t.Fatalf("%v k=%d tile=%d faulted run not fully cached: %+v after %+v", rc, k, tileRows, st2, st)
				}
				for f := range want {
					if !cold[f].Equal(want[f]) {
						t.Fatalf("%v k=%d tile=%d cold frame %d differs from reference", rc, k, tileRows, f)
					}
					if !warm[f].Equal(want[f]) {
						t.Fatalf("%v k=%d tile=%d cache-hit frame %d differs from reference", rc, k, tileRows, f)
					}
					if !faulted[f].Equal(want[f]) {
						t.Fatalf("%v k=%d tile=%d faulted cache-hit frame %d differs from reference", rc, k, tileRows, f)
					}
				}
			}
		}
	}
}

// TestCacheSharedAcrossTileModes: tiling only changes scheduling, never
// pixels, so runs differing in TileRows share cache entries — the second
// tile mode must hit entries the first one populated.
func TestCacheSharedAcrossTileModes(t *testing.T) {
	cache := rcache.New(64 << 20)
	spec := execSpecForTest(2, OneRenderer)
	spec.TileRows = 0
	a := collectCached(t, spec, cache)
	misses := cache.Stats().Misses
	spec.TileRows = 8
	b := collectCached(t, spec, cache)
	st := cache.Stats()
	if st.Misses != misses {
		t.Fatalf("tile-mode change caused new renders: %+v", st)
	}
	for f := range a {
		if !a[f].Equal(b[f]) {
			t.Fatalf("frame %d differs across tile modes", f)
		}
	}
}

// TestCacheDistinctSeedsShareFrames: the job seed only drives post-render
// filter stages, so jobs differing in seed share rendered frames but
// still produce different final pixels.
func TestCacheDistinctSeedsShareFrames(t *testing.T) {
	cache := rcache.New(64 << 20)
	spec := execSpecForTest(2, NRenderers)
	a := collectCached(t, spec, cache)
	misses := cache.Stats().Misses
	spec.Seed = spec.Seed + 1
	b := collectCached(t, spec, cache)
	st := cache.Stats()
	if st.Misses != misses {
		t.Fatalf("seed change re-rendered frames: %+v", st)
	}
	// The filter output must still differ (scratch/flicker are seeded).
	same := true
	for f := range a {
		if !a[f].Equal(b[f]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical filtered frames")
	}
	// And each run still matches its own sequential reference.
	specB := spec
	want := collect(t, specB, false)
	for f := range want {
		if !b[f].Equal(want[f]) {
			t.Fatalf("seed-varied cached frame %d differs from reference", f)
		}
	}
}
