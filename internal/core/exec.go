package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"sccpipe/internal/band"
	"sccpipe/internal/faults"
	"sccpipe/internal/filters"
	"sccpipe/internal/frame"
	"sccpipe/internal/pipe"
	"sccpipe/internal/rcache"
	"sccpipe/internal/render"
)

// ExecSpec configures a real (pixel-producing) pipeline run. It mirrors
// Spec but executes with goroutines and channels instead of the simulated
// SCC: the examples and the functional tests use it.
type ExecSpec struct {
	Frames    int
	Width     int
	Height    int
	Pipelines int
	// Renderer selects OneRenderer (one goroutine renders full frames and
	// splits them) or NRenderers (one renderer per pipeline, sort-first).
	// HostRenderer behaves like OneRenderer here: there is no separate
	// host when running natively.
	Renderer RendererConfig
	// Seed drives the scratch and flicker stages deterministically: the
	// RNG of stage s on strip i of frame f depends only on (Seed, f, i, s),
	// so parallel and sequential executions produce identical pixels.
	Seed int64
	// OrientedScratches replaces the paper's vertical-only scratch filter
	// with the arbitrary-orientation extension it suggests (§IV).
	OrientedScratches bool
	// Observer receives frame- and stage-level progress callbacks while the
	// run is in flight — the hook the serve layer uses to stream frames and
	// export live per-stage busy time.
	Observer ExecObserver
	// Pool recycles frame and strip buffers across the run, with or without
	// Faults. Nil selects the process-shared frame.DefaultPool. Because
	// buffers are recycled, the image handed to sink is only valid for the
	// duration of the callback — see Exec. A buffer a dead pipeline may
	// still be writing (one the stall watchdog abandoned, say) is never
	// returned to the pool; the GC reclaims it.
	Pool *frame.Pool

	// Faults injects failures into the run for chaos testing, and Recovery
	// tunes the supervision that makes them survivable. Every run executes
	// the same program on the pipe.Chain runtime: nil Faults injects
	// nothing, and nil Recovery applies the faults.RecoveryPolicy defaults.
	// Renderer, Pool, FrameCache, Plan and TileRows apply under faults as
	// they do without. When a pipeline dies, its in-flight strips are
	// re-rendered from (frame, strip) into fresh buffers on survivors,
	// bit-identical to ExecReference.
	Faults   faults.Injector
	Recovery *faults.RecoveryPolicy

	// NoFuse disables plan-time stage fusion. By default adjacent per-pixel
	// stages (sepia, scratch, flicker, swap — scratch only in its vertical
	// form) collapse into a single one-read-one-write pass per strip, which
	// cuts the stage-to-stage memory traffic the paper identifies as the
	// pipeline's bound; pixels are bit-identical either way. Set NoFuse for
	// paper-faithful per-stage arrangement experiments. Ignored when Plan
	// is set: a computed plan states its fusion boundaries explicitly.
	NoFuse bool
	// Plan, when non-nil, replaces the automatic maximal-fusion stage plan
	// with a computed one (see internal/plan): explicit fusion boundaries
	// plus optional per-group and renderer band-worker counts. The plan
	// must validate against FilterOrder — see StagePlan — and because every
	// legal plan only regroups passes the fused kernel proves bit-exact,
	// pixels are byte-identical to ExecReference under any plan.
	Plan *StagePlan
	// Bands is the worker pool for intra-stage band parallelism: blur, the
	// fused point pass, and the rasterizer split each strip into
	// independent row bands over it. Nil selects the process-shared pool
	// sized from GOMAXPROCS (band.Default); band.Serial forces the
	// single-goroutine path. Output is identical for every pool.
	Bands *band.Pool
	// TileRows fixes the row height of the tiled rasterizer's binning
	// tiles; 0 lets the renderer size tiles from the strip height and band
	// parallelism. Pixels are identical for every value — tiling only
	// changes scheduling granularity.
	TileRows int

	// FrameCache, when non-nil, serves rendered (pre-filter) frames from a
	// content-addressed cache instead of rasterizing: on a hit the
	// renderer stage memcpys the cached pixels into the pooled buffer and
	// the filter chain runs on the copy, byte-identical to a cold render
	// because the renderer is deterministic in the keyed inputs. Racing
	// identical jobs single-flight through the cache (one renders, the
	// rest copy). Runs with Faults consult it too.
	FrameCache *rcache.Cache
	// SceneKey identifies the scene geometry inside FrameCache keys (see
	// rcache.SceneKey). Callers sharing one cache across scenes must set
	// it; with a single fixed scene zero is fine.
	SceneKey uint64
}

// ExecObserver carries optional progress callbacks for a real run. Either
// field may be nil. Callbacks are invoked from the stage goroutines while
// the pipeline is running, potentially concurrently with each other, so
// they must be safe for concurrent use and should return quickly — a slow
// observer backpressures the stage that called it.
type ExecObserver struct {
	// OnFrame fires in the transfer stage after frame f has been assembled
	// and handed to the sink (frames arrive in order).
	OnFrame func(f int)
	// OnStageBusy reports wall time one stage instance spent computing on
	// one strip (or, for the renderer and transfer, one frame). pipeline is
	// the strip/pipeline index, or -1 for the shared renderer and transfer
	// stages (a strip re-rendered after its pipeline died reports its strip
	// index). A fused pass is reported under its constituent stage kinds —
	// its measured time split proportionally to the DES cost model, summing
	// exactly to the wall time — never under StageFused, so per-stage
	// profiles compare directly between fused and NoFuse runs.
	OnStageBusy func(kind StageKind, pipeline int, busy time.Duration)
	// OnRenderStats reports the work counters of one render call (one strip
	// for NRenderers, one full frame for OneRenderer, pipeline as in
	// OnStageBusy). The planner's profile recorder uses the counters to
	// decompose observed render busy time into its fixed (cull + setup +
	// bin) and per-pixel parts, so replanning prices the tiled rasterizer
	// honestly.
	OnRenderStats func(pipeline int, st render.Stats)
}

// stageBusy wraps a stage's compute step with the busy-time callback.
func (o ExecObserver) stageBusy(kind StageKind, pipeline int, fn func() error) error {
	if o.OnStageBusy == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	o.OnStageBusy(kind, pipeline, time.Since(t0))
	return err
}

// fusedBusy wraps a planned stage's compute step, attributing the measured
// busy time across the constituent stage kinds proportionally to shares
// (the DES cost-model weights, see CostModel.FusedShares). The last
// constituent absorbs rounding so the per-kind durations sum exactly to
// the measured wall time: no time is invented, none is dropped, and no
// observer ever sees an opaque StageFused entry. A single-kind stage
// reports its whole busy time under its kind.
func (o ExecObserver) fusedBusy(kinds []StageKind, shares []float64, pipeline int, fn func() error) error {
	if o.OnStageBusy == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	busy := time.Since(t0)
	var charged time.Duration
	for j, k := range kinds {
		d := busy - charged
		if j < len(kinds)-1 {
			d = time.Duration(float64(busy) * shares[j])
		}
		o.OnStageBusy(k, pipeline, d)
		charged += d
	}
	return err
}

// Validate reports whether the exec spec is runnable.
func (s ExecSpec) Validate() error {
	if s.Frames <= 0 || s.Width <= 0 || s.Height <= 0 {
		return fmt.Errorf("core: bad exec spec %+v", s)
	}
	if s.Pipelines < 1 || s.Pipelines > s.Height {
		return fmt.Errorf("core: exec pipelines %d out of range", s.Pipelines)
	}
	if err := s.Plan.Validate(s.OrientedScratches); err != nil {
		return err
	}
	return nil
}

// ExecResult reports a real run.
type ExecResult struct {
	Frames  int
	Elapsed time.Duration
	// Degraded is non-nil only when a run survived pipeline deaths: it
	// names the dead pipelines and counts retries and redispatched strips.
	// Runs that recovered purely by retrying transient failures (no
	// deaths) leave it nil; per-stage retry activity is observable via
	// RecoveryPolicy.OnEvent.
	Degraded *faults.Degraded
}

// stageSeed derives a deterministic RNG seed for one stage application.
func stageSeed(seed int64, f, strip int, kind StageKind) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [3]uint64{uint64(f), uint64(strip), uint64(kind)} {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
	}
	return int64(x >> 1)
}

// applyFilter runs one filter stage on a strip image. rng is the caller's
// reusable generator: the randomized stages re-seed it from (Seed, f,
// strip, kind), so the pixels are identical to a fresh generator per
// application while a stage allocates its RNG state only once per strip.
// bands is the intra-stage worker pool (blur splits its rows over it);
// nil or band.Serial keeps the stage single-goroutine.
func applyFilter(kind StageKind, img *frame.Image, spec ExecSpec, f, strip int, rng *rand.Rand, bands *band.Pool) error {
	switch kind {
	case StageSepia:
		filters.Sepia(img)
	case StageBlur:
		filters.BlurBands(img, bands)
	case StageScratch:
		rng.Seed(stageSeed(spec.Seed, f, strip, kind))
		if spec.OrientedScratches {
			filters.ScratchOriented(img, rng, filters.DefaultOrientedScratchParams())
		} else {
			filters.Scratch(img, rng)
		}
	case StageFlicker:
		rng.Seed(stageSeed(spec.Seed, f, strip, kind))
		filters.Flicker(img, rng)
	case StageSwap:
		filters.Swap(img)
	default:
		return fmt.Errorf("core: %v is not a filter stage", kind)
	}
	return nil
}

// execStage is one stage of the planned filter chain: a single filter, or
// a fused run of adjacent point filters executed as one memory pass.
// shares (fused stages only) split the measured busy time back across the
// constituents for observer attribution; workers > 0 gives the stage a
// dedicated band pool instead of the spec-wide one.
type execStage struct {
	kinds   []StageKind
	shares  []float64
	workers int
}

func (e execStage) fused() bool { return len(e.kinds) > 1 }

func (e execStage) name() string {
	parts := make([]string, len(e.kinds))
	for i, k := range e.kinds {
		parts[i] = k.String()
	}
	return strings.Join(parts, "+")
}

// FusableKind reports whether a stage is a per-pixel (point) stage that
// can fold into a fused pass: blur's 3-row stencil cannot, and the
// oriented-scratch extension draws y-dependent strokes, so only vertical
// scratches fuse. This is the contract a computed StagePlan must respect.
func FusableKind(k StageKind, oriented bool) bool {
	switch k {
	case StageSepia, StageFlicker, StageSwap:
		return true
	case StageScratch:
		return !oriented
	}
	return false
}

// planStages resolves the executed stage sequence. With a computed Plan it
// lowers the plan's groups directly; otherwise it groups FilterOrder into
// maximal runs of adjacent fusable stages (unless NoFuse), everything else
// one-to-one. With the default order the auto plan is [sepia] [blur]
// [scratch+flicker+swap] — sepia stays alone because blur splits the run.
// Fused stages get their busy-time attribution shares from the DES cost
// model.
func (s ExecSpec) planStages() []execStage {
	var plan []execStage
	if s.Plan != nil {
		for gi, g := range s.Plan.Groups {
			est := execStage{kinds: g}
			if gi < len(s.Plan.GroupWorkers) {
				est.workers = s.Plan.GroupWorkers[gi]
			}
			plan = append(plan, est)
		}
	} else {
		fuses := func(k StageKind) bool { return !s.NoFuse && FusableKind(k, s.OrientedScratches) }
		for i, k := range FilterOrder {
			if n := len(plan); n > 0 && fuses(k) && fuses(FilterOrder[i-1]) {
				plan[n-1].kinds = append(plan[n-1].kinds, k)
				continue
			}
			plan = append(plan, execStage{kinds: []StageKind{k}})
		}
	}
	m := DefaultCostModel()
	for i := range plan {
		if plan[i].fused() {
			plan[i].shares = m.FusedShares(plan[i].kinds)
		}
	}
	return plan
}

// fusedRunner executes one fused run of point filters: per strip it
// re-seeds each randomized constituent's RNG stream exactly as the
// unfused stage would, draws the per-frame parameters up front, and
// applies the whole composition in a single pass over the pixels. The
// composition is golden-tested bit-identical to the sequential stages.
// It is a filter stage's reusable scratch; unfused stages use its rng.
type fusedRunner struct {
	fz  filters.Fused
	rng *rand.Rand
}

func newFusedRunner() *fusedRunner { return &fusedRunner{rng: newStageRNG()} }

func (fr *fusedRunner) apply(kinds []StageKind, img *frame.Image, spec ExecSpec, f, strip int, bands *band.Pool) error {
	fr.fz.Reset()
	for _, k := range kinds {
		switch k {
		case StageSepia:
			fr.fz.AddSepia()
		case StageScratch:
			fr.rng.Seed(stageSeed(spec.Seed, f, strip, k))
			fr.fz.AddScratch(filters.DrawScratchParams(fr.rng, img.W))
		case StageFlicker:
			fr.rng.Seed(stageSeed(spec.Seed, f, strip, k))
			fr.fz.AddFlicker(filters.DrawFlickerDelta(fr.rng))
		case StageSwap:
			fr.fz.AddSwap()
		default:
			return fmt.Errorf("core: %v cannot fuse", k)
		}
	}
	fr.fz.ApplyBands(img, bands)
	return nil
}

// newStageRNG builds one reusable scratch-stage generator.
func newStageRNG() *rand.Rand { return rand.New(rand.NewSource(0)) }

// must turns an error no valid spec can produce into a panic, which the
// runtime recovers into the run's error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Exec runs the macro pipeline for real: frames are rendered, filtered
// strip-wise through the five stages, reassembled, and handed to sink in
// frame order. Each stage of each pipeline is one goroutine connected by
// capacity-1 channels, matching the paper's structure (and the natural
// goroutine translation of the SCC design). It is ExecContext with a
// background context.
//
// Frame buffers come from spec.Pool and are recycled after each frame, so
// in steady state the run performs no per-frame pixel allocation: with one
// renderer the filter stages mutate zero-copy row views of the rendered
// frame and that same buffer reaches sink. The img passed to sink is
// therefore BORROWED — it is valid only until the callback returns and is
// then reused for a later frame. Sinks that retain pixels past the
// callback must copy them (img.Clone, or frame.Strip.Detach for strips).
func Exec(spec ExecSpec, tree *render.Octree, cams []render.Camera, sink func(f int, img *frame.Image)) (ExecResult, error) {
	return ExecContext(context.Background(), spec, tree, cams, sink)
}

// ExecContext is Exec with cancellation and full error propagation: when
// ctx is cancelled mid-walkthrough every stage goroutine stops promptly and
// ExecContext returns ctx's error; a panic in any stage (or in sink) is
// recovered and returned as an error. No goroutines are leaked on any path.
//
// The run is lowered onto pipe.Chain, the one real-execution runtime: one
// work item per (frame, strip), a render stage followed by the planned
// filter stages on each of the k pipelines, and a transfer goroutine that
// reassembles strips and hands frames to sink in order. The same program
// runs with and without Faults/Recovery.
func ExecContext(ctx context.Context, spec ExecSpec, tree *render.Octree, cams []render.Camera, sink func(f int, img *frame.Image)) (ExecResult, error) {
	if err := spec.Validate(); err != nil {
		return ExecResult{}, err
	}
	if len(cams) < spec.Frames {
		return ExecResult{}, fmt.Errorf("core: %d cameras for %d frames", len(cams), spec.Frames)
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	x := newExecRun(spec, tree, cams)
	stages := x.stages()

	// Each pipeline may feed at most window frames ahead of the transfer:
	// one per stage, plus the frame the transfer is sinking and the next
	// one, so no stage waits on the sink. Feed takes a slot in its
	// pipeline's ahead channel, and the transfer frees one slot per
	// pipeline per emitted frame. Without the bound a fast pipeline
	// outruns a slow one and their frames pile up waiting for assembly; a
	// deeper window only queues work ahead of the frame the transfer waits
	// for, which delays the first frame. (On the benchmark's orbit-png
	// workload on a 2-vCPU Xeon, len(stages) cut the frame rate and
	// 2×len(stages) delayed the first frame.)
	window := len(stages) + 2
	ahead := make([]chan struct{}, spec.Pipelines)
	for i := range ahead {
		ahead[i] = make(chan struct{}, window)
	}

	// Transfer: its own goroutine, so sink (PNG or delta encode in the
	// service) overlaps rendering and filtering of later frames. It gathers
	// the k strips of each frame (in any order after a redistribution) and
	// emits frames in order. The window bounds the strips it can be sent,
	// so the channel never blocks the supervisor calling Collect.
	done := make(chan pipe.Item, window*spec.Pipelines)
	var sinkErr error
	emitted := 0
	transferDone := make(chan struct{})
	go func() {
		defer close(transferDone)
		defer func() {
			if r := recover(); r != nil {
				sinkErr = fmt.Errorf("core: transfer panicked: %v", r)
				cancel()
			}
		}()
		pending := make(map[int][]*frame.Strip)
		for it := range done {
			got := pending[it.Seq]
			if got == nil {
				got = make([]*frame.Strip, 0, spec.Pipelines)
			}
			pending[it.Seq] = append(got, it.Data.(*frame.Strip))
			for len(pending[emitted]) == spec.Pipelines {
				x.transfer(emitted, pending[emitted], sink)
				delete(pending, emitted)
				emitted++
				for _, c := range ahead {
					<-c
				}
			}
		}
	}()

	// One work item per (frame, strip): Item.Seq is the frame and
	// Item.Pipeline the strip index. Data stays nil until the render stage
	// sets the *frame.Strip, so the as-fed snapshot the supervisor keeps
	// for redo carries no pixels and a redone strip is re-rendered — the
	// renderer is deterministic and the randomized filters seed from
	// (Seed, frame, strip, stage), so a redo is bit-identical.
	chain := &pipe.Chain{
		Stages: stages,
		Feed: func(pl, seq int) (pipe.Item, bool) {
			if seq >= spec.Frames {
				return pipe.Item{}, false
			}
			select {
			case ahead[pl] <- struct{}{}:
				return pipe.Item{}, true
			case <-ctx.Done():
				return pipe.Item{}, false // ends the stream; the run reports ctx's error
			}
		},
		Collect:  func(it pipe.Item) { done <- it },
		Faults:   spec.Faults,
		Recovery: spec.Recovery,
	}
	res, err := chain.RunContext(ctx, spec.Pipelines)
	close(done)
	<-transferDone
	if sinkErr != nil {
		return ExecResult{}, sinkErr
	}
	if err == nil && emitted < spec.Frames {
		err = ctx.Err() // a cancelled Feed ended the streams early
	}
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Frames: spec.Frames, Elapsed: time.Since(start), Degraded: res.Degraded}, nil
}

// execRun is the state one run's stages share.
type execRun struct {
	spec   ExecSpec
	cams   []render.Camera
	pool   *frame.Pool
	shared *sharedFrames // OneRenderer/HostRenderer; nil for NRenderers
	// renderers[i] serves strip i and renderers[k] whole frames.
	renderers []freeList[*render.Renderer]
}

// freeList recycles stage scratch — renderers, filter runners — within
// one run. A stage Fn runs on whichever pipeline carries the item
// (and on stall-watchdog helpers), so scratch cannot belong to a
// goroutine; it is kept per (stage, strip) instead. A clean run then
// builds exactly one per stage and strip, as a goroutine-per-stage chain
// would, with each renderer's setup buffers sized to its own strip; only
// strips redistributed after a death build more.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
	new   func() T
}

func (l *freeList[T]) get() T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.items); n > 0 {
		x := l.items[n-1]
		l.items = l.items[:n-1]
		return x
	}
	return l.new()
}

func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}

// perStrip returns n free lists built by newT.
func perStrip[T any](n int, newT func() T) []freeList[T] {
	ls := make([]freeList[T], n)
	for i := range ls {
		ls[i].new = newT
	}
	return ls
}

func newExecRun(spec ExecSpec, tree *render.Octree, cams []render.Camera) *execRun {
	x := &execRun{spec: spec, cams: cams, pool: spec.Pool}
	if x.pool == nil {
		x.pool = frame.DefaultPool
	}
	if spec.Renderer != NRenderers {
		x.shared = &sharedFrames{k: spec.Pipelines, slots: make(map[int]*frameSlot)}
	}
	renderBands := spec.bandPool()
	if spec.Plan != nil && spec.Plan.RenderWorkers > 0 {
		renderBands = bandPoolFor(spec.Plan.RenderWorkers)
	}
	x.renderers = perStrip(spec.Pipelines+1, func() *render.Renderer {
		r := render.NewRenderer(tree)
		r.Bands = renderBands
		r.TileRows = spec.TileRows
		return r
	})
	return x
}

// stages lowers the run onto pipe stages: render, then one stage per
// planned filter group. A fused group is ONE pipe stage whose Covers lists
// the constituent names, so fault rules naming a fused-away stage still
// fire. The observer sees the strip index as the pipeline: the origin
// pipeline, even when a survivor carries the strip after a death.
func (x *execRun) stages() []pipe.Stage {
	spec := &x.spec
	stages := []pipe.Stage{{Name: StageRender.String(), Fn: x.render}}
	for _, est := range spec.planStages() {
		est := est
		bands := spec.bandPool()
		if est.workers > 0 {
			bands = bandPoolFor(est.workers)
		}
		covers := make([]string, len(est.kinds))
		for i, k := range est.kinds {
			covers[i] = k.String()
		}
		runners := perStrip(spec.Pipelines, newFusedRunner)
		stages = append(stages, pipe.Stage{Name: est.name(), Covers: covers, Fn: func(it pipe.Item) pipe.Item {
			l := &runners[it.Pipeline]
			fr := l.get()
			img := it.Data.(*frame.Strip).Img
			must(spec.Observer.fusedBusy(est.kinds, est.shares, it.Pipeline, func() error {
				if est.fused() {
					return fr.apply(est.kinds, img, *spec, it.Seq, it.Pipeline, bands)
				}
				return applyFilter(est.kinds[0], img, *spec, it.Seq, it.Pipeline, fr.rng, bands)
			}))
			l.put(fr)
			return it
		}})
	}
	return stages
}

// render is the render stage: a row view of the shared frame with one
// renderer, or a strip rendered into its own pooled buffer with n
// renderers and for any strip the shared frame cannot hand out again.
func (x *execRun) render(it pipe.Item) pipe.Item {
	f, i := it.Seq, it.Pipeline
	var s *frame.Strip
	if x.shared != nil {
		s = x.shared.view(f, i, x.renderFrame)
	}
	if s == nil {
		y0, y1 := frame.StripBounds(x.spec.Height, x.spec.Pipelines, i)
		s = &frame.Strip{Index: i, Y0: y0, Img: x.pool.Get(x.spec.Width, y1-y0)}
		x.renderRows(s.Img, f, y0, i)
	}
	it.Data = s
	return it
}

// renderFrame renders all of frame f into a pooled buffer.
func (x *execRun) renderFrame(f int) *frame.Image {
	img := x.pool.Get(x.spec.Width, x.spec.Height)
	x.renderRows(img, f, 0, -1)
	return img
}

// renderRows renders rows [y0, y0+dst.H) of frame f into dst through the
// frame cache, reporting busy time and work counters under pipeline.
func (x *execRun) renderRows(dst *frame.Image, f, y0, pipeline int) {
	spec := &x.spec
	rl := &x.renderers[spec.Pipelines]
	if pipeline >= 0 {
		rl = &x.renderers[pipeline]
	}
	r := rl.get()
	key := rcache.FrameKey(spec.SceneKey, x.cams[f], spec.Width, spec.Height, f, y0, dst.H)
	must(spec.Observer.stageBusy(StageRender, pipeline, func() error {
		_, err := spec.FrameCache.Do(key, dst, func(dst *frame.Image) error {
			st := r.RenderStrip(x.cams[f], dst, spec.Width, spec.Height, y0)
			if spec.Observer.OnRenderStats != nil {
				spec.Observer.OnRenderStats(pipeline, st)
			}
			return nil
		})
		return err
	}))
	rl.put(r)
}

// transfer emits one gathered frame and recycles its buffers. With one
// renderer the strips are views of the frame's pooled buffer, already
// assembled in place, and that buffer goes to sink as is; otherwise (n
// renderers, or a frame with a re-rendered strip) the strips are gathered
// into a fresh pooled frame. It runs only on the transfer goroutine.
func (x *execRun) transfer(f int, strips []*frame.Strip, sink func(f int, img *frame.Image)) {
	spec := &x.spec
	var out *frame.Image
	tainted := false
	if x.shared != nil {
		out, tainted = x.shared.release(f)
	}
	if out == nil || tainted {
		out = x.pool.Get(spec.Width, spec.Height)
		frame.AssembleInto(out, strips)
	}
	_ = spec.Observer.stageBusy(StageTransfer, -1, func() error {
		if sink != nil {
			sink(f, out)
		}
		return nil
	})
	if spec.Observer.OnFrame != nil {
		spec.Observer.OnFrame(f)
	}
	for _, s := range strips {
		if s.Parent() == nil {
			x.pool.Put(s.Img)
		}
	}
	x.pool.Put(out)
}

// sharedFrames renders each frame once for OneRenderer/HostRenderer and
// hands its strips to the pipelines as zero-copy row views of one pooled
// buffer. The views are disjoint byte ranges, so the k pipelines never
// touch the same byte. A strip asked for a second time is a redo after its
// carrier died: view returns nil so the caller renders it afresh into its
// own buffer, and the frame is tainted — the first holder, say a stage the
// stall watchdog abandoned, may still be writing its rows — so its buffer
// never returns to the pool. Slots live only while their frame is in
// flight. Frames render one at a time, as on the paper's single renderer
// core, so a run needs one renderer for them however the pipelines race.
type sharedFrames struct {
	mu       sync.Mutex
	renderMu sync.Mutex
	k        int
	slots    map[int]*frameSlot
	emitted  int // frames below this are released and their slots gone
}

type frameSlot struct {
	once    sync.Once
	img     *frame.Image
	views   []*frame.Strip
	taken   []bool
	tainted bool
}

// view returns strip i of frame f as a view, rendering the frame with
// render on the first request, or nil when the strip was handed out
// before.
func (sf *sharedFrames) view(f, i int, render func(f int) *frame.Image) *frame.Strip {
	sf.mu.Lock()
	slot := sf.slots[f]
	if f < sf.emitted || (slot != nil && slot.taken[i]) {
		if slot != nil {
			slot.tainted = true
		}
		sf.mu.Unlock()
		return nil
	}
	if slot == nil {
		slot = &frameSlot{taken: make([]bool, sf.k)}
		sf.slots[f] = slot
	}
	slot.taken[i] = true
	sf.mu.Unlock()
	slot.once.Do(func() {
		sf.renderMu.Lock()
		defer sf.renderMu.Unlock()
		slot.img = render(f)
		views, err := frame.SplitRowsView(slot.img, sf.k)
		must(err)
		slot.views = views
	})
	return slot.views[i]
}

// release drops frame f's slot after its last strip arrived, returning the
// frame's buffer and whether it is tainted.
func (sf *sharedFrames) release(f int) (*frame.Image, bool) {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	slot := sf.slots[f]
	delete(sf.slots, f)
	sf.emitted = f + 1
	return slot.img, slot.tainted
}

// ExecReference computes the same strip-wise result sequentially — the
// oracle for testing that parallel pipelines do not change pixels. It
// always runs the plain per-stage filters on a single goroutine (no
// fusion, no band parallelism), so it is the fixed point the fused and
// banded paths are verified against. Like ExecContext it recovers panics
// (e.g. from sink) into errors.
func ExecReference(spec ExecSpec, tree *render.Octree, cams []render.Camera, sink func(f int, img *frame.Image)) (err error) {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(cams) < spec.Frames {
		return fmt.Errorf("core: %d cameras for %d frames", len(cams), spec.Frames)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: reference run panicked: %v", r)
		}
	}()
	r := render.NewRenderer(tree)
	r.Mode = render.RasterSerial // the oracle stays single-goroutine by construction
	rng := newStageRNG()
	k := spec.Pipelines
	for f := 0; f < spec.Frames; f++ {
		var strips []*frame.Strip
		for i := 0; i < k; i++ {
			y0, y1 := frame.StripBounds(spec.Height, k, i)
			img := frame.New(spec.Width, y1-y0)
			r.RenderStrip(cams[f], img, spec.Width, spec.Height, y0)
			for _, kind := range FilterOrder {
				if err := applyFilter(kind, img, spec, f, i, rng, band.Serial); err != nil {
					return err
				}
			}
			strips = append(strips, &frame.Strip{Index: i, Y0: y0, Img: img})
		}
		if sink != nil {
			sink(f, frame.Assemble(spec.Width, spec.Height, strips))
		}
	}
	return nil
}
