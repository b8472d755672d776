// Package pipe generalizes the paper's macro-pipeline pattern beyond image
// processing: users define a linear chain of named stages with real worker
// functions and/or simulation cost descriptions, replicate it into k
// parallel pipelines over partitioned work items, and either execute it
// with goroutines (Run) or evaluate it on the simulated SCC (Simulate).
//
// This is the "other applications" claim of the paper's abstract made
// concrete — see examples/compress for a data-compression chain.
//
// Errors and cancellation: neither Run nor Simulate panics on bad input or
// a failing stage. A panic in user code (Feed, Fn, CostRef, Collect) is
// recovered and returned as an error, RunContext aborts promptly when its
// context is cancelled, and a simulation that stalls with unconsumed work
// returns an error naming the stuck stages instead of silently
// undercounting.
package pipe

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sccpipe/internal/des"
	"sccpipe/internal/faults"
	"sccpipe/internal/rcce"
	"sccpipe/internal/scc"
)

// Item is one unit of work flowing through a pipeline.
type Item struct {
	// Seq is the item's position in its pipeline's stream.
	Seq int
	// Pipeline identifies which parallel pipeline carries the item.
	Pipeline int
	// Data is the payload the stage functions transform.
	Data any
	// Bytes is the payload size the simulation charges for hand-offs;
	// stages may change it (e.g. compression shrinks it).
	Bytes int
}

// Stage describes one macro-pipeline stage.
type Stage struct {
	// Name labels the stage in results.
	Name string
	// Fn transforms an item's payload when executing for real. It must
	// update and return the item (value semantics keep stages honest).
	Fn func(Item) Item
	// CostRef estimates the stage's 533 MHz-reference compute seconds for
	// an item when simulating; nil derives a cost from measured wall time
	// of Fn via Calibrate.
	CostRef func(Item) float64
	// ExtraBytes is stage-private memory traffic per item beyond the
	// receive and send of the payload (scratch buffers etc.).
	ExtraBytes func(Item) int

	// Fusable marks a stage that may be merged with adjacent fusable
	// stages at plan time: a maximal run of fusable stages executes as ONE
	// planned stage (one goroutine, or one simulated core) that applies
	// the constituent Fns back to back, eliminating the hand-offs between
	// them. Mark a stage fusable only if its Fn has no ordering
	// requirement beyond "after the previous stage on the same item" —
	// which every pure per-item transform satisfies. Chain.NoFuse opts a
	// whole run out.
	Fusable bool
	// Covers lists the original stage names this stage stands in for, for
	// fault-injection purposes: runs consult the injector's stage and
	// transfer rules for every covered name, so a rule naming a stage that
	// was fused away still fires. Nil means the stage covers only its own
	// Name. Plan-time fusion fills it in automatically; callers set it
	// when they hand the chain an already-fused stage.
	Covers []string
}

// covers returns the stage's covered names (Covers, or its own Name).
func (s *Stage) covers() []string {
	if len(s.Covers) > 0 {
		return s.Covers
	}
	return []string{s.Name}
}

// Chain is a linear macro pipeline replicated into parallel instances.
type Chain struct {
	Stages []Stage
	// Feed produces item Seq for a pipeline, or false to end the stream.
	// It must be safe for concurrent calls with distinct pipeline indices.
	Feed func(pipeline, seq int) (Item, bool)
	// Collect consumes finished items (any order across pipelines, in
	// order within one). May be nil.
	Collect func(Item)
	// ItemBytes is the chain-level default payload size, stamped onto any
	// item whose Feed left Bytes zero. Both Run and Simulate apply it, so
	// real and simulated executions of one chain see the same payloads
	// (Simulate lets SimSpec.ItemBytes override it per run).
	ItemBytes int

	// Faults injects failures into Run/RunContext for chaos testing, and
	// Recovery tunes the supervision that makes them survivable (retries
	// with backoff, stall detection, pipeline-death redistribution). Every
	// run goes through the same supervised runtime; nil Faults injects
	// nothing and nil Recovery applies the faults.RecoveryPolicy defaults.
	//
	// Recovery relaxes two contracts in exchange for survival: items of
	// one stream may reach Collect out of order after a redistribution,
	// and stage Fns must treat Item.Data as an immutable input (returning
	// new payloads rather than mutating in place), because an item whose
	// pipeline died is redone from its as-fed snapshot.
	Faults   faults.Injector
	Recovery *faults.RecoveryPolicy

	// NoFuse disables plan-time fusion of adjacent Fusable stages, keeping
	// the paper-faithful one-core-per-stage arrangement (every hand-off
	// paid) even when stages are marked fusable. Ignored when Groups is
	// set.
	NoFuse bool

	// Groups, when non-nil, replaces the automatic maximal-fusion plan
	// with an explicit grouping — the lowered form of a computed stage
	// plan (see internal/plan). Each inner slice lists indices into
	// Stages forming one planned stage; indices must be contiguous,
	// ascending, and cover every stage exactly once, and a multi-stage
	// group may only contain Fusable stages.
	Groups [][]int
}

// plannedStage is one stage of the execution plan: a single chain stage,
// or a fused run of adjacent Fusable stages executed back to back on one
// core/goroutine.
type plannedStage struct {
	name    string
	parts   []Stage  // constituents in chain order; len 1 = unfused
	covered []string // all covered names, for fault injection
}

// plan resolves the execution plan. An explicit Groups override is
// lowered directly; otherwise maximal runs of adjacent Fusable stages
// become single planned stages (unless Chain.NoFuse), everything else
// one-to-one. Run and Simulate both execute the plan, so fused and
// unfused arrangements differ only in hand-offs, never in per-item work.
func (c *Chain) plan() []plannedStage {
	groups := c.Groups
	if groups == nil {
		for i, st := range c.Stages {
			if n := len(groups); !c.NoFuse && n > 0 && st.Fusable && c.Stages[i-1].Fusable {
				groups[n-1] = append(groups[n-1], i)
				continue
			}
			groups = append(groups, []int{i})
		}
	}
	plan := make([]plannedStage, 0, len(groups))
	for _, g := range groups {
		var p plannedStage
		for _, si := range g {
			st := c.Stages[si]
			if p.name != "" {
				p.name += "+"
			}
			p.name += st.Name
			p.parts = append(p.parts, st)
			p.covered = append(p.covered, st.covers()...)
		}
		plan = append(plan, p)
	}
	return plan
}

// Validate reports whether the chain is runnable.
func (c *Chain) Validate() error {
	if len(c.Stages) == 0 {
		return fmt.Errorf("pipe: chain has no stages")
	}
	if c.Feed == nil {
		return fmt.Errorf("pipe: chain has no feed")
	}
	for i, s := range c.Stages {
		if s.Name == "" {
			return fmt.Errorf("pipe: stage %d unnamed", i)
		}
	}
	if c.Groups != nil {
		next := 0
		for gi, g := range c.Groups {
			if len(g) == 0 {
				return fmt.Errorf("pipe: plan group %d is empty", gi)
			}
			for _, si := range g {
				if si != next || si >= len(c.Stages) {
					return fmt.Errorf("pipe: plan group %d: stage index %d out of order (want %d of %d; groups must cover the chain contiguously)", gi, si, next, len(c.Stages))
				}
				if len(g) > 1 && !c.Stages[si].Fusable {
					return fmt.Errorf("pipe: plan group %d fuses non-fusable stage %q", gi, c.Stages[si].Name)
				}
				next++
			}
		}
		if next != len(c.Stages) {
			return fmt.Errorf("pipe: plan groups cover %d of %d stages", next, len(c.Stages))
		}
	}
	return nil
}

// RunResult reports a real execution.
type RunResult struct {
	Items   int
	Elapsed time.Duration
	// Degraded is non-nil only when a run survived pipeline deaths: it
	// names the dead pipelines and counts retries and redispatched items.
	// Runs that recovered purely by retrying transient failures (no
	// deaths) leave it nil; per-stage retry activity is observable via
	// RecoveryPolicy.OnEvent.
	Degraded *faults.Degraded
}

// Run executes the chain for real with k parallel pipelines, each stage a
// goroutine connected by capacity-1 channels (the SCC structure).
func (c *Chain) Run(k int) (RunResult, error) {
	return c.RunContext(context.Background(), k)
}

// RunContext is Run with cancellation: when ctx is cancelled the stage
// goroutines stop promptly and RunContext returns ctx's error. A panic in
// Feed, a stage Fn, or Collect is recovered and returned as an error; no
// goroutines are leaked on any path.
//
// Every run is supervised (see runSupervised): with Faults and Recovery
// nil each stage application runs inline with no injected faults, and
// supervision only routes items and watches for deaths.
func (c *Chain) RunContext(ctx context.Context, k int) (RunResult, error) {
	if err := c.Validate(); err != nil {
		return RunResult{}, err
	}
	if k < 1 {
		return RunResult{}, fmt.Errorf("pipe: need at least one pipeline")
	}
	return c.runSupervised(ctx, k)
}

// Calibrate measures each stage's mean wall time over the given sample
// items and installs CostRef functions scaled by the ratio of a P54C at
// 533 MHz to this machine (speedRatio, e.g. 40 for a modern laptop core).
// Stages with explicit CostRef are left alone.
func (c *Chain) Calibrate(samples []Item, speedRatio float64) error {
	if len(samples) == 0 || speedRatio <= 0 {
		return fmt.Errorf("pipe: calibration needs samples and a positive ratio")
	}
	for i := range c.Stages {
		st := &c.Stages[i]
		if st.CostRef != nil || st.Fn == nil {
			continue
		}
		items := append([]Item(nil), samples...)
		t0 := time.Now()
		for j := range items {
			items[j] = st.Fn(items[j])
		}
		mean := time.Since(t0).Seconds() / float64(len(items))
		cost := mean * speedRatio
		st.CostRef = func(Item) float64 { return cost }
		// Feed the transformed samples to the next stage's measurement.
		samples = items
	}
	return nil
}

// SimResult reports a simulated execution on the SCC model.
type SimResult struct {
	Seconds float64
	// Items counts the items that actually reached the sink, summed over
	// pipelines; it is less than Pipelines×SimSpec.Items when Feed ended a
	// stream early.
	Items int
	// StageBusy is each stage's total busy (compute+memory) seconds,
	// summed over pipelines. Fused runs are attributed per constituent
	// stage name, so fused and unfused runs of one chain are comparable.
	StageBusy map[string]float64
	// CoresUsed counts the SCC cores occupied. Fused runs of adjacent
	// stages share one core, so fusion shrinks it.
	CoresUsed int
	EnergyJ   float64
	// HandoffBytes is the total payload traffic through the memory system
	// for stage-to-stage hand-offs (end-of-stream markers excluded). This
	// is the quantity stage fusion exists to cut: a fused run pays one
	// hand-off where the unfused chain pays one per constituent.
	HandoffBytes int64
}

// SimSpec configures a simulated run of a chain.
type SimSpec struct {
	Pipelines int
	// Items is the stream length per pipeline; Feed may end a stream
	// earlier, which propagates through the stages as an end-of-stream
	// marker rather than stalling them.
	Items int
	// ItemBytes sizes each item's payload for hand-off costs; used when
	// Bytes is not set per item by Feed (falls back to Chain.ItemBytes).
	ItemBytes int
	// FeedCostRef is the source's per-item reference compute (the chain's
	// producer, e.g. reading input); 0 for an instant source.
	FeedCostRef float64
	// ChipConfig overrides the chip model.
	ChipConfig *scc.Config
	// Injector injects faults into the simulated stages (nil = none).
	// Delays and retried transient errors are charged as simulated time;
	// an injected stall or core death parks the stage process forever,
	// which Simulate reports as a quiesce error naming the stuck stage
	// and the injected reason.
	Injector faults.Injector
}

// Simulated recovery constants: transient faults are retried up to
// simMaxRetries times, each retry charging an exponentially growing
// backoff starting at simRetryBackoff seconds of simulated time.
const (
	simMaxRetries   = 3
	simRetryBackoff = 100e-6
)

// simInject runs the injector protocol for one stage application (or
// hand-off, when transfer is true) inside a simulated process. It returns
// normally on a clean pass and parks the process forever — surfacing as a
// named quiesce — on a stall, core death, or exhausted retry budget.
func simInject(p *des.Proc, inj faults.Injector, transfer bool, pl int, stage string, seq int) {
	if inj == nil {
		return
	}
	if inj.Dead(pl, seq) {
		p.Stall(fmt.Sprintf("injected core death at item %d", seq))
	}
	backoff := simRetryBackoff
	for attempt := 0; ; attempt++ {
		var o faults.Outcome
		if transfer {
			o = inj.Transfer(pl, stage, seq, attempt)
		} else {
			o = inj.Stage(pl, stage, seq, attempt)
		}
		if o.Stall {
			p.Stall(fmt.Sprintf("injected stall on item %d", seq))
		}
		if o.Delay > 0 {
			p.Wait(o.Delay.Seconds())
		}
		if o.Err == nil {
			return
		}
		if attempt+1 > simMaxRetries {
			p.Stall(fmt.Sprintf("retries exhausted on item %d: %v", seq, o.Err))
		}
		p.Wait(backoff)
		backoff *= 2
	}
}

// endOfStream is the sentinel payload the source emits when Feed ends a
// stream; each stage forwards it and terminates, so short streams drain
// cleanly instead of parking every downstream stage forever.
type endOfStream struct{}

// eosBytes is the wire size charged for the end-of-stream marker: a
// one-flit control message on the MPB fast path.
const eosBytes = 4

// Simulate runs the chain's cost model on the simulated SCC: a source core
// feeds each pipeline, stages occupy one core each in ID order, and items
// hop between cores through the memory system exactly like the paper's
// strips. Stage CostRef functions must be set (directly or via Calibrate).
//
// A panic in user code (Feed, Fn, CostRef, ExtraBytes, Collect) is
// recovered and returned as an error, and a simulation that quiesces with
// unconsumed work in flight (a stalled or deadlocked pipeline) returns an
// error naming the parked stages.
func (c *Chain) Simulate(spec SimSpec) (SimResult, error) {
	if err := c.Validate(); err != nil {
		return SimResult{}, err
	}
	if spec.Pipelines < 1 || spec.Items < 1 {
		return SimResult{}, fmt.Errorf("pipe: bad sim spec %+v", spec)
	}
	for _, st := range c.Stages {
		if st.CostRef == nil {
			return SimResult{}, fmt.Errorf("pipe: stage %q has no cost model (run Calibrate)", st.Name)
		}
	}
	plan := c.plan()
	needed := spec.Pipelines*(len(plan)+1) + 1
	if needed > scc.NumCores {
		return SimResult{}, fmt.Errorf("pipe: %d cores needed, chip has %d", needed, scc.NumCores)
	}
	itemBytes := spec.ItemBytes
	if itemBytes == 0 {
		itemBytes = c.ItemBytes
	}

	eng := des.NewEngine()
	cfg := scc.DefaultConfig()
	if spec.ChipConfig != nil {
		cfg = *spec.ChipConfig
	}
	chip := scc.New(eng, cfg)
	comm := rcce.NewComm(chip, 1)

	busy := make(map[string]float64, len(c.Stages))
	collected := 0
	var handoff int64
	var busyMu sync.Mutex // procs run one at a time, but keep vet happy

	next := scc.CoreID(0)
	take := func() scc.CoreID { id := next; next++; chip.MarkUsed(id); return id }
	sink := take()
	for pl := 0; pl < spec.Pipelines; pl++ {
		pl := pl
		src := take()
		cores := make([]scc.CoreID, len(plan))
		for i := range cores {
			cores[i] = take()
		}
		// Source: stream items, then an end-of-stream marker.
		eng.Spawn(fmt.Sprintf("src%d", pl), func(p *des.Proc) {
			for seq := 0; seq < spec.Items; seq++ {
				item, ok := c.Feed(pl, seq)
				if !ok {
					break
				}
				item.Seq, item.Pipeline = seq, pl
				if item.Bytes == 0 {
					item.Bytes = itemBytes
				}
				if spec.FeedCostRef > 0 {
					chip.ComputeSeconds(p, src, spec.FeedCostRef)
				}
				busyMu.Lock()
				handoff += int64(item.Bytes)
				busyMu.Unlock()
				comm.Send(p, src, cores[0], item, item.Bytes)
			}
			comm.Send(p, src, cores[0], endOfStream{}, eosBytes)
		})
		// Planned stages: process until the end-of-stream marker arrives,
		// then forward it and terminate. A fused planned stage applies its
		// constituents back to back — one receive, one send — with each
		// constituent's compute, extra traffic, injected faults and busy
		// time accounted under its own name, so fused and unfused results
		// are directly comparable.
		for i, ps := range plan {
			i, ps := i, ps
			from := src
			if i > 0 {
				from = cores[i-1]
			}
			to := sink
			if i+1 < len(cores) {
				to = cores[i+1]
			}
			eng.Spawn(fmt.Sprintf("%s%d", ps.name, pl), func(p *des.Proc) {
				for {
					m, _ := comm.Recv(p, cores[i], from)
					if _, end := m.Payload.(endOfStream); end {
						comm.Send(p, cores[i], to, endOfStream{}, eosBytes)
						return
					}
					item := m.Payload.(Item)
					for _, st := range ps.parts {
						t0 := p.Now()
						for _, name := range st.covers() {
							simInject(p, spec.Injector, false, pl, name, item.Seq)
						}
						chip.ComputeSeconds(p, cores[i], st.CostRef(item))
						if st.ExtraBytes != nil {
							chip.MemRead(p, cores[i], st.ExtraBytes(item))
						}
						if st.Fn != nil {
							item = st.Fn(item) // propagate size changes
						}
						// The hand-off fault point of every covered stage
						// still fires, charged to the planned stage's single
						// outgoing send.
						for _, name := range st.covers() {
							simInject(p, spec.Injector, true, pl, name, item.Seq)
						}
						busyMu.Lock()
						busy[st.Name] += p.Now() - t0
						busyMu.Unlock()
					}
					busyMu.Lock()
					handoff += int64(item.Bytes)
					busyMu.Unlock()
					comm.Send(p, cores[i], to, item, item.Bytes)
				}
			})
		}
		// Per-pipeline drain into the shared sink core.
		last := cores[len(cores)-1]
		eng.Spawn(fmt.Sprintf("sink%d", pl), func(p *des.Proc) {
			for {
				m, _ := comm.Recv(p, sink, last)
				if _, end := m.Payload.(endOfStream); end {
					return
				}
				if c.Collect != nil {
					c.Collect(m.Payload.(Item))
				}
				busyMu.Lock()
				collected++
				busyMu.Unlock()
			}
		})
	}
	eng.Run()
	if err := eng.Err(); err != nil {
		return SimResult{}, fmt.Errorf("pipe: simulation failed: %w", err)
	}
	if eng.Quiesced() {
		return SimResult{}, fmt.Errorf("pipe: simulation quiesced with unconsumed work after %d of %d items (%s)",
			collected, spec.Pipelines*spec.Items, eng.QuiescedReport())
	}
	sec := eng.Now()
	return SimResult{
		Seconds:      sec,
		Items:        collected,
		StageBusy:    busy,
		CoresUsed:    chip.UsedCount(),
		EnergyJ:      chip.Energy(0, sec),
		HandoffBytes: handoff,
	}, nil
}
