GO ?= go

# The hot-path benchmarks snapshotted into BENCH_pipeline.json: kernel
# pairs (optimized vs reference), the strip split/assemble round trip, the
# renderer, the end-to-end pipeline + serve runs (cold and cache-hit), the
# stream codecs (Huffman round trip, temporal delta), and the fleet
# control paths (registration heartbeats, chaos-transport overhead).
BENCH ?= ^(BenchmarkFilter|BenchmarkFrameSplitAssemble|BenchmarkRenderFrame|BenchmarkRenderStrip|BenchmarkExecPipelineReal|BenchmarkExecPipelinePlan|BenchmarkPlanCompute|BenchmarkServeConcurrentJobs|BenchmarkGateway|BenchmarkNetfaults|BenchmarkCodecHuffmanRoundTrip|BenchmarkDeltaResidual)

.PHONY: build test vet race test-framedebug bench bench-all bench-compare serve-smoke plan-smoke raster-smoke fleet-smoke fleet-chaos cache-smoke fuzz chaos-soak check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race run (and through it `make check`) soaks the fused,
# band-parallel chaos layout: CHAOS_SOAK_FUSE=1 makes TestChaosSoak run
# with fusion on and parallel bands under the race detector.
race:
	CHAOS_SOAK_FUSE=1 $(GO) test -race ./...

# The frame pool's ownership checks (double put, use after put) only exist
# under the framedebug build tag; exercise them explicitly.
test-framedebug:
	$(GO) test -tags framedebug ./internal/frame

# Run the hot-path benchmarks and snapshot them to BENCH_pipeline.json
# (committed): ns/op, B/op and allocs/op for the pipeline loop and every
# kernel next to its paper-literal reference. Not part of `check` — bench
# runs are minutes long and machine-dependent.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem . > bench.tmp.txt
	$(GO) run ./cmd/benchjson -o BENCH_pipeline.json < bench.tmp.txt
	@rm -f bench.tmp.txt

bench-all:
	$(GO) test -run '^$$' -bench=. -benchmem .

# Re-run the snapshot benchmarks and gate against the committed baseline:
# any benchmark present in both runs that is more than 20% slower (ns/op)
# fails the target. The fresh run is written to a scratch file so the
# committed BENCH_pipeline.json is never clobbered by a gating run.
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem . > bench.tmp.txt
	$(GO) run ./cmd/benchjson -o bench.compare.json -compare BENCH_pipeline.json < bench.tmp.txt
	@rm -f bench.tmp.txt bench.compare.json

# End-to-end smoke of the render service: builds sccserved, starts it on a
# random port, submits simulate and render jobs, verifies queue-full 429s,
# scrapes /healthz and /metrics, and SIGTERMs to check a clean drain. The
# driver lives behind the servesmoke build tag in cmd/sccserved.
serve-smoke:
	$(GO) test -tags servesmoke -run TestServeSmoke -count=1 ./cmd/sccserved

# Planner ablation smoke: a shortened run of the profile-driven plan
# experiment — the computed mapping must price, simulate, and beat the
# static one on the synthetic imbalance (asserted by the experiment's own
# test; this target exercises the CLI path end to end).
plan-smoke:
	$(GO) run ./cmd/paperrepro -exp plan -frames 64

# Rasterizer ablation smoke: real walkthrough renders on the serial and
# tiled-binned paths — every frame is byte-compared
# against the serial oracle inside the experiment, so a raster divergence
# fails the run, and the printed table records the measured vs DES-predicted
# speedup and the tiled path's work counters.
raster-smoke:
	$(GO) run ./cmd/paperrepro -exp raster -frames 16

# End-to-end smoke of the fleet gateway: builds sccgated and sccserved,
# starts a gateway over two real worker processes, submits a long render
# through the gateway, SIGKILLs the worker serving it mid-stream, and
# verifies the relayed stream completes with frame payloads byte-identical
# to a single-node run — with the death and retry visible in the sccgate
# metrics. The driver lives behind the fleetsmoke build tag in
# cmd/sccgated.
fleet-smoke:
	$(GO) test -tags fleetsmoke -run TestFleetSmoke -count=1 ./cmd/sccgated

# Fleet chaos gate: real gateway + worker processes under a seeded
# network-fault plan (-chaos) covering lag, drops, mid-stream resets,
# slow-loris trickle, corrupt/truncated frames, and an epoch-gated
# partition. Asserts frame payloads byte-identical to a clean single-node
# run, exactly-once delivery via the relay counters, lease-expiry
# eviction of a killed dynamic worker, and a runtime-registered worker
# absorbing the partitioned worker's load — all deterministic for the
# fixed seed. The driver lives behind the fleetchaos build tag in
# cmd/sccgated.
fleet-chaos:
	$(GO) test -tags fleetchaos -run TestFleetChaos -count=1 ./cmd/sccgated

# Render-cache + delta-stream smoke against the built binaries: a gateway
# over two real workers, the same dwell-walkthrough spec submitted twice
# (byte-identical frames, sccserve_cache_hits_total > 0 on the affine
# worker), then the spec streamed delta-encoded — decoded pixels must
# match the PNG run exactly while spending strictly fewer payload bytes.
# The driver lives behind the cachesmoke build tag in cmd/sccgated.
cache-smoke:
	$(GO) test -tags cachesmoke -run TestCacheSmoke -count=1 -v ./cmd/sccgated

# Chaos soak: a seeded fault-injection barrage against the render service
# under the race detector — every job must survive injected transients,
# flaky transfers, and a pipeline death via re-partitioning. The barrage
# length scales with CHAOS_SOAK_JOBS; CHAOS_SOAK_FUSE=1 soaks the fused,
# band-parallel stage layout (0 soaks the unfused five-stage chain). The
# short deterministic version (default job count) already rides along in
# `make check` via `race`, fusion enabled there too.
CHAOS_SOAK_JOBS ?= 60
CHAOS_SOAK_FUSE ?= 1
chaos-soak:
	CHAOS_SOAK_JOBS=$(CHAOS_SOAK_JOBS) CHAOS_SOAK_FUSE=$(CHAOS_SOAK_FUSE) \
		$(GO) test -race -count=1 -v \
		-run 'Chaos|Breaker|HardStop|Supervised|Injected' \
		./internal/serve ./internal/pipe ./internal/core

# Brief fuzz of every decode-path target (codec streams, PNG parsing,
# strip assembly). FUZZTIME bounds each target; raise it for deep runs.
FUZZTIME ?= 10s
fuzz:
	@for t in FuzzHuffmanDecode FuzzHuffmanRoundtrip FuzzRLEDecode FuzzDeltaRoundtrip FuzzDeltaFrameDecode; do \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./internal/codec || exit 1; done
	@for t in FuzzReadPNG FuzzPNGRoundtrip FuzzSplitAssemble FuzzAssembleMalformed; do \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./internal/frame || exit 1; done
	@$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME) ./internal/netfaults || exit 1
	@for t in FuzzParseRegister FuzzLoadReport; do \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./internal/fleet || exit 1; done

# Non-test Go lines in the repository outside perfbench/ (its own module):
# the size figure each change reports its net effect on. Counts files git
# tracks, so stage new files first.
loc:
	@cat $$(git ls-files '*.go' | grep -v _test.go | grep -v '^perfbench/') | wc -l

# The pre-merge gate: static checks plus the full suite under the race
# detector (the pipeline backends are heavily concurrent — this includes
# the short chaos soak and the fuzz seed corpora as regression tests),
# then the service smoke sequence against the real binary.
check: vet race test-framedebug serve-smoke fleet-smoke fleet-chaos cache-smoke plan-smoke raster-smoke
