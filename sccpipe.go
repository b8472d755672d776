// Package sccpipe is a reproduction of "Parallel Macro Pipelining on the
// Intel SCC Many-Core Computer" (Süß, Schoenrock, Meisner, Plessl;
// IPDPSW 2013) as a reusable Go library.
//
// It provides, end to end:
//
//   - a macro-pipeline framework (render → sepia → blur → scratch →
//     flicker → swap → transfer) with sort-first strip parallelism across
//     multiple pipelines;
//   - a discrete-event model of the Intel SCC (48 P54C cores on a 6×4-tile
//     mesh, four memory controllers, no local memory, per-island DVFS, a
//     calibrated power model) plus MCPC and HPC-cluster host models, on
//     which pipeline configurations are *simulated* to reproduce the
//     paper's evaluation;
//   - a real execution backend (goroutines + channels) that renders and
//     filters actual pixels, for applications and functional validation;
//   - experiment drivers regenerating every table and figure of the paper
//     (internal/experiments, surfaced here as RunFig8..RunFig17, RunTable1,
//     RunEnergy).
//
// Quick start (simulate the paper's best configuration):
//
//	wl := sccpipe.DefaultWorkload(400, 512, 512)
//	spec := sccpipe.DefaultSpec()
//	spec.Renderer = sccpipe.HostRenderer
//	spec.Pipelines = 5
//	res, err := sccpipe.Simulate(spec, wl, sccpipe.SimOptions{})
//	// res.Seconds ≈ the paper's ≈51 s walkthrough
//
// Or process real frames:
//
//	tree := sccpipe.BuildOctree(sccpipe.City(sccpipe.DefaultSceneConfig()))
//	cams := sccpipe.Walkthrough(40, tree.Bounds())
//	spec := sccpipe.ExecSpec{Frames: 40, Width: 320, Height: 240, Pipelines: 4}
//	sccpipe.Exec(spec, tree, cams, func(f int, img *sccpipe.Image) { ... })
//
// # Errors and cancellation
//
// No exported entry point panics on bad input or runtime failure — they
// return errors. A panic in user-supplied code (a pipe stage Fn, Feed,
// Collect, or an Exec sink) is recovered inside the runtime and surfaced
// as the call's error; a simulation that stalls with work still in flight
// returns an error naming each stuck stage and what it was waiting on
// instead of silently returning a truncated result. Every execution and
// simulation path reclaims its goroutines on completion, failure, and
// cancellation alike.
//
// Long real runs are cancellable: ExecContext and PipeChain.RunContext
// take a context.Context and abort promptly (returning ctx.Err()) when it
// is cancelled. Exec and PipeChain.Run are the background-context
// wrappers.
package sccpipe

import (
	"context"
	"fmt"
	"io"

	"sccpipe/internal/band"
	"sccpipe/internal/codec"
	"sccpipe/internal/core"
	"sccpipe/internal/experiments"
	"sccpipe/internal/faults"
	"sccpipe/internal/fleet"
	"sccpipe/internal/frame"
	"sccpipe/internal/host"
	"sccpipe/internal/netfaults"
	"sccpipe/internal/pipe"
	"sccpipe/internal/render"
	"sccpipe/internal/scc"
	"sccpipe/internal/scene"
	"sccpipe/internal/serve"
	"sccpipe/internal/trace"
)

// ---------------------------------------------------------------------------
// Pipeline framework (the paper's contribution)

// Core pipeline types.
type (
	// Spec describes one simulated walkthrough experiment.
	Spec = core.Spec
	// ExecSpec describes a real (pixel-producing) pipeline run.
	ExecSpec = core.ExecSpec
	// SimOptions overrides simulation defaults.
	SimOptions = core.SimOptions
	// SimResult reports a simulated walkthrough.
	SimResult = core.SimResult
	// ExecResult reports a real run.
	ExecResult = core.ExecResult
	// ExecObserver carries optional progress callbacks for a real run
	// (per-frame completion, per-stage busy time).
	ExecObserver = core.ExecObserver
	// SingleCoreResult reports the sequential one-core baseline.
	SingleCoreResult = core.SingleCoreResult
	// StageKind identifies a macro-pipeline stage.
	StageKind = core.StageKind
	// Arrangement selects the mesh layout of pipelines.
	Arrangement = core.Arrangement
	// RendererConfig selects the paper's three scenarios.
	RendererConfig = core.RendererConfig
	// Workload is a profiled walkthrough shared across simulations.
	Workload = core.Workload
	// CostModel holds the calibrated stage cost constants.
	CostModel = core.CostModel
	// Placement maps stages onto SCC cores.
	Placement = core.Placement
	// Trace is a per-stage activity timeline of a simulated run.
	Trace = trace.Trace
	// TraceSpan is one contiguous stage activity.
	TraceSpan = trace.Span
	// TracePhaseTotals aggregates a stage's trace time by phase.
	TracePhaseTotals = trace.PhaseTotals
	// Band is one strip's row range in a sort-first decomposition.
	Band = core.Band
	// StagePool is a reusable worker pool for intra-stage band
	// parallelism; plug one into ExecSpec.Bands (see NewStagePool).
	StagePool = band.Pool
)

// Stage kinds.
const (
	StageRender   = core.StageRender
	StageSepia    = core.StageSepia
	StageBlur     = core.StageBlur
	StageScratch  = core.StageScratch
	StageFlicker  = core.StageFlicker
	StageSwap     = core.StageSwap
	StageTransfer = core.StageTransfer
	StageConnect  = core.StageConnect
)

// Arrangements (§IV-A).
const (
	Unordered = core.Unordered
	Ordered   = core.Ordered
	Flipped   = core.Flipped
)

// Renderer configurations (§V).
const (
	OneRenderer  = core.OneRenderer
	NRenderers   = core.NRenderers
	HostRenderer = core.HostRenderer
)

// FilterOrder lists the five filter stages in pipeline order.
var FilterOrder = core.FilterOrder

// Arrangements lists all three arrangements for sweeps.
var AllArrangements = core.Arrangements

// DefaultSpec returns the paper's walkthrough configuration.
func DefaultSpec() Spec { return core.DefaultSpec() }

// MaxPipelines reports the SCC's pipeline capacity per configuration.
func MaxPipelines(r RendererConfig) int { return core.MaxPipelines(r) }

// Place computes the stage-to-core assignment for a spec.
func Place(s Spec) (Placement, error) { return core.Place(s) }

// DefaultCostModel returns the calibrated stage cost model.
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// Simulate runs a spec on the simulated SCC.
func Simulate(spec Spec, wl *Workload, opts SimOptions) (SimResult, error) {
	return core.Simulate(spec, wl, opts)
}

// SimulateCluster runs a spec's configuration on the Mogon cluster model.
func SimulateCluster(spec Spec, wl *Workload, c Cluster, opts SimOptions) (SimResult, error) {
	return core.SimulateCluster(spec, wl, c, opts)
}

// SimulateSingleCore runs stages sequentially on one SCC core (baseline).
func SimulateSingleCore(spec Spec, wl *Workload, stages []StageKind, opts SimOptions) (SingleCoreResult, error) {
	return core.SimulateSingleCore(spec, wl, stages, opts)
}

// SingleCoreStages is the full baseline stage sequence.
var SingleCoreStages = core.SingleCoreStages

// NewStagePool sizes a worker pool for intra-stage band parallelism from
// a worker-count knob: 0 returns the process-wide GOMAXPROCS-sized
// default pool, 1 a serial (caller-runs) pool, and n > 1 a dedicated
// n-worker pool. Assign the result to ExecSpec.Bands; blur, the fused
// per-pixel pass, and the renderer split their rows across it.
func NewStagePool(workers int) *StagePool { return core.BandPool(workers) }

// Exec runs the pipeline for real over actual pixels. Frame buffers are
// pooled: the img passed to sink is valid only during the callback and is
// recycled afterwards, so sinks that retain pixels must Clone them.
func Exec(spec ExecSpec, tree *Octree, cams []Camera, sink func(f int, img *Image)) (ExecResult, error) {
	return core.Exec(spec, tree, cams, sink)
}

// ExecContext is Exec with cancellation: when ctx is cancelled
// mid-walkthrough the stage goroutines stop promptly and the call returns
// ctx's error.
func ExecContext(ctx context.Context, spec ExecSpec, tree *Octree, cams []Camera, sink func(f int, img *Image)) (ExecResult, error) {
	return core.ExecContext(ctx, spec, tree, cams, sink)
}

// ExecReference computes the same result sequentially (testing oracle).
func ExecReference(spec ExecSpec, tree *Octree, cams []Camera, sink func(f int, img *Image)) error {
	return core.ExecReference(spec, tree, cams, sink)
}

// BuildWorkload profiles a walkthrough over a scene octree.
func BuildWorkload(tree *Octree, frames, w, h int) *Workload {
	return core.BuildWorkload(tree, frames, w, h)
}

// DefaultWorkload profiles the paper's walkthrough over the default city.
func DefaultWorkload(frames, w, h int) *Workload { return core.DefaultWorkload(frames, w, h) }

// ---------------------------------------------------------------------------
// Imaging, rendering and scene substrates

// Image and rendering types.
type (
	// Image is an RGBA frame buffer (4 bytes/pixel).
	Image = frame.Image
	// Strip is a horizontal band of a frame.
	Strip = frame.Strip
	// FramePool recycles frame buffers by size class; set ExecSpec.Pool to
	// isolate a run's buffers from the shared default pool.
	FramePool = frame.Pool
	// Camera describes a perspective view.
	Camera = render.Camera
	// Octree organizes scene triangles for culling.
	Octree = render.Octree
	// Triangle is a colored scene primitive.
	Triangle = render.Triangle
	// Vec3 is a 3-component vector.
	Vec3 = render.Vec3
	// SceneConfig controls the procedural city generator.
	SceneConfig = scene.Config
)

// NewImage returns a black, opaque frame buffer. Both dimensions must be
// at least one pixel.
func NewImage(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("sccpipe: invalid image size %dx%d", w, h)
	}
	return frame.New(w, h), nil
}

// SplitRows divides a frame into horizontal strips (sort-first). It is an
// error to ask for fewer than one strip or for more strips than rows.
func SplitRows(im *Image, n int) ([]*Strip, error) { return frame.SplitRows(im, n) }

// SplitRowsView divides a frame into zero-copy strips: each strip's image
// aliases the parent frame's rows instead of copying them, so in-place
// filtering of a strip edits the frame directly. Strips of different
// indexes cover disjoint rows and may be mutated concurrently. Use
// Strip.Detach for an independent copy, and see the frame.Pool ownership
// rules (README "Performance") before recycling view parents.
func SplitRowsView(im *Image, n int) ([]*Strip, error) { return frame.SplitRowsView(im, n) }

// NewFramePool returns an empty, independent frame pool.
func NewFramePool() *FramePool { return frame.NewPool() }

// Assemble recombines strips into a frame of the given size.
func Assemble(w, h int, strips []*Strip) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("sccpipe: invalid frame size %dx%d", w, h)
	}
	return frame.Assemble(w, h, strips), nil
}

// ReadPNG decodes a PNG stream into an Image, the inverse of
// Image.WritePNG — stream clients use it to turn server responses back
// into frame buffers. Frames above frame.MaxDecodePixels are rejected
// before any pixel allocation.
func ReadPNG(r io.Reader) (*Image, error) { return frame.ReadPNG(r) }

// BuildOctree constructs the culling structure over scene triangles.
func BuildOctree(tris []Triangle) *Octree { return render.BuildOctree(tris) }

// Walkthrough generates the camera flight used by the experiments.
func Walkthrough(frames int, b render.AABB) []Camera { return render.Walkthrough(frames, b) }

// DwellWalkthrough generates the inspection-style camera path: the orbit
// poses of Walkthrough, each held for render.DwellHold frames. Its
// temporal redundancy is what the delta stream encoding is for.
func DwellWalkthrough(frames int, b render.AABB) []Camera { return render.DwellWalkthrough(frames, b) }

// FrameDeltaEncode delta-codes a raw RGBA frame against the previously
// delivered one (all zeros before the first), picking the cheapest of a
// residual RLE+Huffman part, a residual PNG part, or a keyframe per
// frame. FrameDeltaDecode inverts it given the same previous frame.
// These are the payload codecs behind the `X-Frame-Encoding: delta`
// stream negotiation (see ServeConfig and the gateway relay).
func FrameDeltaEncode(prev, cur []byte, w, h int) ([]byte, error) {
	return codec.FrameDeltaEncode(prev, cur, w, h)
}

// FrameDeltaDecode reconstructs a raw RGBA frame from a delta payload.
func FrameDeltaDecode(prev, payload []byte, w, h int) ([]byte, error) {
	return codec.FrameDeltaDecode(prev, payload, w, h)
}

// City generates the procedural city scene.
func City(cfg SceneConfig) []Triangle { return scene.City(cfg) }

// DefaultSceneConfig returns the default city parameters.
func DefaultSceneConfig() SceneConfig { return scene.DefaultConfig() }

// ---------------------------------------------------------------------------
// Platform models

// Platform model types.
type (
	// ChipConfig holds the SCC chip model parameters.
	ChipConfig = scc.Config
	// FreqLevel is an SCC core frequency with its minimum voltage.
	FreqLevel = scc.FreqLevel
	// PowerSample is one point of a chip power trace.
	PowerSample = scc.PowerSample
	// MCPC models the management console PC.
	MCPC = host.MCPC
	// Cluster models a Mogon-style HPC node.
	Cluster = host.Cluster
	// Link models a chunked, bandwidth-limited transport.
	Link = host.Link
)

// SCC frequency levels used by the paper.
var (
	Freq400 = scc.Freq400
	Freq533 = scc.Freq533
	Freq800 = scc.Freq800
)

// DefaultChipConfig returns the calibrated SCC model parameters.
func DefaultChipConfig() ChipConfig { return scc.DefaultConfig() }

// DefaultMCPC returns the calibrated MCPC model.
func DefaultMCPC() MCPC { return host.DefaultMCPC() }

// DefaultCluster returns the calibrated Mogon model.
func DefaultCluster() Cluster { return host.DefaultCluster() }

// ---------------------------------------------------------------------------
// Generic macro pipelines (beyond image processing)

// Generic pipeline types: define arbitrary stage chains with real worker
// functions, run them with goroutines, or evaluate them on the SCC model
// — the paper's "other applications" claim as an API.
type (
	// PipeChain is a linear macro pipeline of arbitrary stages.
	PipeChain = pipe.Chain
	// PipeStage is one stage of a generic chain.
	PipeStage = pipe.Stage
	// PipeItem is one unit of work in a generic chain.
	PipeItem = pipe.Item
	// PipeSimSpec configures a simulated generic-chain run.
	PipeSimSpec = pipe.SimSpec
	// PipeSimResult reports a simulated generic-chain run.
	PipeSimResult = pipe.SimResult
	// PipeRunResult reports a real generic-chain run.
	PipeRunResult = pipe.RunResult
)

// ---------------------------------------------------------------------------
// Fault injection and supervised recovery

// Fault-plane types: a seeded declarative fault plan compiled into a
// deterministic injector, the recovery policy supervising real runs, and
// the degraded-mode report. Set ExecSpec.Faults/Recovery (or the PipeChain
// fields of the same names) to inject faults or tune recovery. Every real
// run executes on the same supervised runtime, so a chaos run renders,
// pools, caches and fuses exactly as a clean one; nil injects nothing and
// applies the default policy.
type (
	// FaultPlan is a seeded set of fault rules (see faults.Plan).
	FaultPlan = faults.Plan
	// FaultRule describes one fault to inject.
	FaultRule = faults.Rule
	// FaultKind classifies an injected fault.
	FaultKind = faults.Kind
	// FaultInjector is consulted by the execution backends at their fault
	// points; implement it directly for custom chaos.
	FaultInjector = faults.Injector
	// FaultOutcome is what an injector wants to happen at one fault point.
	FaultOutcome = faults.Outcome
	// FaultEvent is one recovery occurrence (retry, stall, death,
	// redispatch), delivered to RecoveryPolicy.OnEvent.
	FaultEvent = faults.Event
	// RecoveryPolicy tunes supervision: retry budget, backoff, stall
	// watchdog.
	RecoveryPolicy = faults.RecoveryPolicy
	// Degraded reports how a run survived pipeline deaths.
	Degraded = faults.Degraded
	// ServerBreakerConfig tunes the render service's circuit breaker.
	ServerBreakerConfig = serve.BreakerConfig
)

// Fault kinds.
const (
	FaultTransient    = faults.KindTransient
	FaultDelay        = faults.KindDelay
	FaultStall        = faults.KindStall
	FaultDeath        = faults.KindDeath
	FaultTransfer     = faults.KindTransfer
	FaultTransferSlow = faults.KindTransferSlow

	// FaultAny is the wildcard for FaultRule.Pipeline and FaultRule.Seq.
	FaultAny = faults.Any
)

// NewFaultRule returns a wildcard rule of the given kind gated at
// probability p.
func NewFaultRule(kind FaultKind, p float64) FaultRule { return faults.NewRule(kind, p) }

// NewFaultInjector compiles a plan into a deterministic injector: every
// decision is a pure hash of (seed, rule, pipeline, stage, seq), so a
// seeded chaos run makes identical choices regardless of scheduling.
func NewFaultInjector(p FaultPlan) (FaultInjector, error) { return faults.NewInjector(p) }

// ParseFaultPlan parses the compact chaos spec used by sccserved -chaos,
// e.g. "seed=7,err=0.02,stall=0.001,death=0.0005,delay=0.01:5ms".
func ParseFaultPlan(s string) (*FaultPlan, error) { return faults.ParsePlan(s) }

// ---------------------------------------------------------------------------
// Render service

// Service types: the streaming HTTP front end over the pipeline runtime
// (admission control, bounded worker pool, per-job deadlines, graceful
// drain, Prometheus metrics). cmd/sccserved is the ready-made binary.
type (
	// RenderServer is the HTTP render service; it implements http.Handler.
	RenderServer = serve.Server
	// ServerConfig tunes a render server (workers, queue depth, deadlines,
	// drain timeout, job limits, scene).
	ServerConfig = serve.Config
	// ServerLimits bounds what a single job may request.
	ServerLimits = serve.Limits
	// JobSpec is the JSON wire format of one job submission.
	JobSpec = serve.JobSpec
)

// Camera paths a JobSpec can request: the default continuous orbit, or
// the dwell path that holds each vantage (where delta streaming pays).
const (
	CameraOrbit = serve.CameraOrbit
	CameraDwell = serve.CameraDwell
)

// Frame-stream encoding negotiation: send FrameEncodingHeader with
// FrameEncodingDelta on a job request to switch the response's frame
// parts from PNG payloads to temporal deltas (DeltaContentType parts;
// decode with FrameDeltaDecode chained from an all-zeros frame).
const (
	FrameEncodingHeader = serve.FrameEncodingHeader
	FrameEncodingRaw    = serve.FrameEncodingRaw
	FrameEncodingDelta  = serve.FrameEncodingDelta
	DeltaContentType    = serve.DeltaContentType
)

// NewServer builds a render server; the zero config serves with defaults
// over the paper's procedural city.
func NewServer(cfg ServerConfig) *RenderServer { return serve.New(cfg) }

// Serve runs a render server on addr until ctx is cancelled, then drains
// gracefully: admission stops, in-flight jobs stream to completion, and
// the listener closes. It returns nil after a clean drain.
func Serve(ctx context.Context, addr string, cfg ServerConfig) error {
	return serve.New(cfg).ListenAndServe(ctx, addr, nil)
}

// ---------------------------------------------------------------------------
// Fleet gateway

// Fleet types: the distributed front end that shards jobs across render
// servers with health checks, least-loaded + rendezvous routing, mid-job
// failover, and fleet-wide metrics aggregation. cmd/sccgated is the
// ready-made binary.
type (
	// Gateway is the fleet gateway; it implements http.Handler with the
	// /jobs, /healthz, /nodes and /metrics endpoints.
	Gateway = fleet.Gateway
	// GatewayConfig tunes a gateway (worker URLs, health cadence,
	// deregistration threshold, failover policy, drain timeout).
	GatewayConfig = fleet.Config
	// NodeStatus is one row of the gateway's /nodes worker table.
	NodeStatus = fleet.NodeStatus
	// WorkerLoad is the machine-readable load report a render server
	// publishes on /healthz and the gateway routes by.
	WorkerLoad = serve.LoadReport
	// NetFaultPlan is a seeded deterministic network fault plan injected
	// into gateway→worker traffic (GatewayConfig.NetFaults, sccgated
	// -chaos): latency, drops, resets, slow-loris trickle, corrupt or
	// truncated frames, and per-worker partitions.
	NetFaultPlan = netfaults.Plan
	// NetFaultRule is one rule of a NetFaultPlan.
	NetFaultRule = netfaults.Rule
	// RegistrarConfig tunes RunRegistrar, the worker-side loop that joins
	// a gateway fleet dynamically and heartbeats its lease.
	RegistrarConfig = serve.RegistrarConfig
)

// ParseNetFaultPlan parses the compact network chaos spec used by
// sccgated -chaos, e.g.
// "seed=7,lag=0.2:10ms,drop=0.05,loris=0.01:250ms,partition=node2:8344@40".
func ParseNetFaultPlan(s string) (*NetFaultPlan, error) { return netfaults.ParsePlan(s) }

// RunRegistrar registers a worker with a fleet gateway and heartbeats
// until ctx ends, keeping its lease alive (sccserved -register).
func RunRegistrar(ctx context.Context, cfg RegistrarConfig) error {
	return serve.RunRegistrar(ctx, cfg)
}

// NewGateway builds a fleet gateway over the given worker base URLs.
// Call Start (or ServeGateway / Gateway.ListenAndServe, which do it for
// you) to begin health checking.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return fleet.New(cfg) }

// ServeGateway runs a fleet gateway on addr until ctx is cancelled, then
// drains gracefully: admission stops, in-flight relays stream to
// completion, and the listener closes. It returns nil after a clean
// drain.
func ServeGateway(ctx context.Context, addr string, cfg GatewayConfig) error {
	g, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	return g.ListenAndServe(ctx, addr, nil)
}

// ---------------------------------------------------------------------------
// Paper experiments

// Experiment types.
type (
	// ExpSetup fixes the walkthrough parameters of the experiment drivers.
	ExpSetup = experiments.Setup
	// Fig8Result is the single-core stage profile.
	Fig8Result = experiments.Fig8Result
	// SweepResult is a pipeline-count sweep (Figs. 9–11).
	SweepResult = experiments.SweepResult
	// Fig12Result is the image-size sweep.
	Fig12Result = experiments.Fig12Result
	// ClusterResult is the Fig. 13 cluster comparison.
	ClusterResult = experiments.ClusterResult
	// Fig14Result is the power-vs-cores experiment.
	Fig14Result = experiments.Fig14Result
	// Fig15Result is the stage idle-time experiment.
	Fig15Result = experiments.Fig15Result
	// Fig16Result is the per-stage DVFS experiment (Figs. 16/17).
	Fig16Result = experiments.Fig16Result
	// Table1Result is the full results grid.
	Table1Result = experiments.Table1Result
	// EnergyResult is the §VI-B energy comparison.
	EnergyResult = experiments.EnergyResult
	// AblationResult explores chip variants (local memory, MC ports).
	AblationResult = experiments.AblationResult
	// AdaptiveResult compares even vs cost-balanced strips.
	AdaptiveResult = experiments.AdaptiveResult
	// ParetoResult maps the DVFS time/energy plan space.
	ParetoResult = experiments.ParetoResult
	// CacheStudyResult measures filter access patterns on the cache model.
	CacheStudyResult = experiments.CacheStudyResult
	// FusionResult compares the fused and unfused stage layouts on the
	// SCC model: hand-off traffic, occupied cores, walkthrough seconds.
	FusionResult = experiments.FusionResult
)

// DefaultExpSetup returns the paper's 400-frame experiment setup.
func DefaultExpSetup() ExpSetup { return experiments.DefaultSetup() }

// Experiment drivers, one per table/figure of the paper.
var (
	RunFig8   = experiments.RunFig8
	RunFig9   = experiments.RunFig9
	RunFig10  = experiments.RunFig10
	RunFig11  = experiments.RunFig11
	RunFig12  = experiments.RunFig12
	RunFig13  = experiments.RunFig13
	RunFig14  = experiments.RunFig14
	RunFig15  = experiments.RunFig15
	RunFig16  = experiments.RunFig16
	RunFig17  = experiments.RunFig17
	RunTable1 = experiments.RunTable1
	RunEnergy = experiments.RunEnergy

	// Extensions beyond the paper's own evaluation.
	RunAblation   = experiments.RunAblation
	RunAdaptive   = experiments.RunAdaptive
	RunDVFSPareto = experiments.RunDVFSPareto
	RunCacheStudy = experiments.RunCacheStudy
	RunFusion     = experiments.RunFusion
)
