package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"sccpipe/internal/core"
	"sccpipe/internal/frame"
	"sccpipe/internal/rcache"
	"sccpipe/internal/render"
	"sccpipe/internal/scene"
	"sccpipe/internal/serve"
)

// reference holds the benchmark's own copy of the scene, built outside
// every timed and set-up window, for checks against core.ExecReference
// and a direct core.Simulate.
type reference struct {
	tree     *render.Octree
	sceneKey uint64
	wlMu     sync.Mutex
	wls      map[[3]int]*core.Workload
}

func newReference() *reference {
	tris := scene.City(scene.DefaultConfig())
	return &reference{
		tree:     render.BuildOctree(tris),
		sceneKey: rcache.SceneKey(tris),
		wls:      map[[3]int]*core.Workload{},
	}
}

var renderers = map[string]core.RendererConfig{"one": core.OneRenderer, "n": core.NRenderers, "host": core.HostRenderer}
var arrangements = map[string]core.Arrangement{"unordered": core.Unordered, "ordered": core.Ordered, "flipped": core.Flipped}

// execSpec is the core run spec a render job asks the service for.
func execSpec(s serve.JobSpec) core.ExecSpec {
	return core.ExecSpec{
		Frames: s.Frames, Width: s.Width, Height: s.Height, Pipelines: s.Pipelines,
		Renderer: renderers[s.Renderer], Seed: s.Seed, OrientedScratches: s.OrientedScratches,
	}
}

func (ref *reference) cameras(s serve.JobSpec) []render.Camera {
	if s.Camera == serve.CameraDwell {
		return render.DwellWalkthrough(s.Frames, ref.tree.Bounds())
	}
	return render.Walkthrough(s.Frames, ref.tree.Bounds())
}

// checkRender compares a sampled job's received frames byte for byte with
// core.ExecReference: decoded PNG pixels, or the pixels a delta chain
// decoded to.
func (ref *reference) checkRender(j job, r result, delta bool) error {
	if len(r.kept) != j.spec.Frames {
		return fmt.Errorf("kept %d frames of %d", len(r.kept), j.spec.Frames)
	}
	var mismatch error
	err := core.ExecReference(execSpec(j.spec), ref.tree, ref.cameras(j.spec), func(f int, img *frame.Image) {
		if mismatch != nil {
			return
		}
		got := r.kept[f]
		if !delta {
			dec, err := frame.ReadPNG(bytes.NewReader(got))
			if err != nil {
				mismatch = fmt.Errorf("frame %d: %w", f, err)
				return
			}
			got = dec.Pix
		}
		if !bytes.Equal(got, img.Pix) {
			mismatch = fmt.Errorf("frame %d differs from core.ExecReference", f)
		}
	})
	if err != nil {
		return err
	}
	return mismatch
}

// simKey identifies a simulate job's spec.
type simKey struct {
	spec  core.Spec
	trace bool
}

func simSpec(s serve.JobSpec) simKey {
	return simKey{trace: s.Trace, spec: core.Spec{
		Frames: s.Frames, Width: s.Width, Height: s.Height, Pipelines: s.Pipelines,
		Renderer: renderers[s.Renderer], Arrangement: arrangements[s.Arrangement],
	}}
}

func (ref *reference) workload(frames, w, h int) (*core.Workload, time.Duration) {
	key := [3]int{frames, w, h}
	ref.wlMu.Lock()
	defer ref.wlMu.Unlock()
	if wl, ok := ref.wls[key]; ok {
		return wl, 0
	}
	t0 := time.Now()
	wl := core.BuildWorkload(ref.tree, frames, w, h)
	d := time.Since(t0)
	ref.wls[key] = wl
	return wl, d
}

// simCheck is a direct core.Simulate of one distinct spec.
type simCheck struct {
	want    simReply
	elapsed time.Duration
	err     error
}

// simulateAll runs core.Simulate once per distinct spec among jobs, on
// as many goroutines as the closed loop has clients. It also returns the
// time each distinct workload shape took to build.
func (ref *reference) simulateAll(jobs []job) (map[simKey]*simCheck, []time.Duration) {
	checks := map[simKey]*simCheck{}
	var keys []simKey
	var builds []time.Duration
	for _, j := range jobs {
		k := simSpec(j.spec)
		if _, ok := checks[k]; !ok {
			checks[k] = &simCheck{}
			keys = append(keys, k)
			if _, d := ref.workload(k.spec.Frames, k.spec.Width, k.spec.Height); d > 0 {
				builds = append(builds, d)
			}
		}
	}
	work := make(chan simKey)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				c := checks[k]
				wl, _ := ref.workload(k.spec.Frames, k.spec.Width, k.spec.Height)
				t0 := time.Now()
				res, err := core.Simulate(k.spec, wl, core.SimOptions{Trace: k.trace})
				c.elapsed = time.Since(t0)
				if err != nil {
					c.err = err
					continue
				}
				c.want = simReply{Seconds: res.Seconds, SCCEnergyJ: res.SCCEnergyJ, HostExtraEnergyJ: res.HostExtraEnergyJ}
				if k.trace && res.Trace != nil {
					c.want.FramePeriodS = res.Trace.Throughput()
				}
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	return checks, builds
}

// checkSim compares a simulate reply with the direct run of its spec.
func checkSim(c *simCheck, got simReply) error {
	if c.err != nil {
		return fmt.Errorf("direct core.Simulate: %w", c.err)
	}
	if got != c.want {
		return fmt.Errorf("reply %+v, direct core.Simulate gives %+v", got, c.want)
	}
	return nil
}
