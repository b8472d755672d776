package pipe

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sccpipe/internal/faults"
)

// This file implements Chain.RunContext, the one real-execution runtime:
// k parallel pipelines of stage goroutines plus a supervisor that makes
// injected (or organic) faults survivable. The paper's own result — the
// mesh arrangement of a pipeline has no measurable effect, because every
// hand-off funnels through the four memory controllers — is what licenses
// the recovery strategy: work can be re-mapped to any surviving pipeline
// at no modeled cost, so a dead pipeline's items are simply
// redistributed.
//
// The moving parts:
//
//   - k feeders pull the per-origin streams and hand items to the
//     supervisor (preserving Feed's contract of one concurrent caller per
//     pipeline index);
//   - the supervisor routes each item to a carrier pipeline — its origin
//     while that is alive, a round-robin survivor afterwards — keeping an
//     as-fed snapshot of every item in flight;
//   - stage goroutines run each application through faults.Apply (injected
//     delays, retried transient errors, stall watchdog) and report death
//     verdicts to the supervisor;
//   - on a death the supervisor cancels that pipeline's context and
//     re-queues its in-flight snapshots onto survivors (stage Fns must be
//     redo-safe, see Chain.Faults);
//   - completions flow back to the supervisor tagged with their carrier.
//     A completion from a dead carrier is dropped: the carrier's in-flight
//     items were all re-queued when it died, so the redone copy is the one
//     delivered and Collect sees every item exactly once. Dedup therefore
//     needs only the dead set, never a record of every delivered item;
//   - the supervisor terminates the run when all streams have ended and
//     nothing is queued or in flight.
type ident struct{ origin, seq int }

// carried is an item and the pipeline carrying it: the hand-off unit
// between stages, a completion, and the supervisor's in-flight record (the
// item as fed, kept for redo).
type carried struct {
	carrier int
	item    Item
}

type deathNote struct {
	pipeline int
	reason   string
}

// supervised bundles the shared state of one supervised run.
type supervised struct {
	c   *Chain
	k   int
	inj faults.Injector
	pol faults.RecoveryPolicy

	ctx     context.Context // run-wide; cancelled on run-level failure
	pctx    []context.Context
	pcancel []context.CancelFunc

	ins       []chan carried // per-pipeline chain heads
	feedCh    chan feedMsg
	deaths    chan deathNote
	completed chan carried

	retries int64 // atomic: total retry attempts across stages
	total   int64 // atomic: unique items delivered to Collect
	// settled flips once the supervisor has decided the run's outcome;
	// cancellations after that are teardown, not errors.
	settled atomic.Bool
}

// feedMsg is a fed item, or the end of its origin's stream.
type feedMsg struct {
	item Item
	eof  bool
}

// runSupervised executes the chain under supervision, with whatever fault
// injection and recovery policy the chain sets. See Chain.Faults and
// Chain.Recovery for the contract changes recovery brings.
func (c *Chain) runSupervised(parent context.Context, k int) (RunResult, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	pol := c.Recovery.Normalize()
	s := &supervised{
		c: c, k: k, inj: c.Faults, pol: pol, ctx: ctx,
		pctx:    make([]context.Context, k),
		pcancel: make([]context.CancelFunc, k),
		ins:     make([]chan carried, k),
		feedCh:  make(chan feedMsg, k),
		// deaths never blocks a reporter: each stage goroutine reports at
		// most once before exiting.
		deaths:    make(chan deathNote, k*(len(c.Stages)+1)),
		completed: make(chan carried, k),
	}
	for i := 0; i < k; i++ {
		s.pctx[i], s.pcancel[i] = context.WithCancel(ctx)
		s.ins[i] = make(chan carried, 1)
	}

	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	var wg sync.WaitGroup
	spawn := func(name string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("pipe: %s panicked: %v", name, r))
				}
			}()
			if err := fn(); err != nil {
				fail(err)
			}
		}()
	}

	// Feeders: one per origin stream. An item's Pipeline field stays its
	// origin for its whole life, whichever carrier processes it.
	for o := 0; o < k; o++ {
		o := o
		spawn(fmt.Sprintf("feed %d", o), func() error {
			for seq := 0; ; seq++ {
				item, ok := c.Feed(o, seq)
				item.Seq, item.Pipeline = seq, o
				if item.Bytes == 0 {
					item.Bytes = c.ItemBytes
				}
				select {
				case s.feedCh <- feedMsg{item: item, eof: !ok}:
				case <-ctx.Done():
					return nil // the run-level outcome is decided elsewhere
				}
				if !ok {
					return nil
				}
			}
		})
	}

	// Stage chains: every application goes through faults.Apply and the
	// last stage emits into the shared completion channel. The chains run
	// the execution plan, so a fused run occupies one goroutine while still
	// honouring every covered stage's fault rules (see runStage).
	plan := c.plan()
	for p := 0; p < k; p++ {
		p := p
		in := s.ins[p]
		for si, ps := range plan {
			ps := ps
			out := s.completed
			if si < len(plan)-1 {
				out = make(chan carried, 1)
			}
			src, dst := in, out
			spawn(fmt.Sprintf("stage %s.%d", ps.name, p), func() error {
				return s.runStage(p, ps, src, dst)
			})
			in = out
		}
	}

	// The supervisor runs inline; it is the sole reader of completions
	// (and the caller of Collect) until it returns.
	degraded, supErr := s.supervise()
	s.settled.Store(true)
	if supErr != nil {
		cancel() // release feeders and stages still parked on channels
	}

	// Teardown: the supervisor has closed (or cancelled) every chain. A
	// drainer takes over the completion channel so stage goroutines can
	// flush any late completions from dead carriers — everything arriving
	// now has already been delivered once — then cascade out.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range s.completed {
		}
	}()
	wg.Wait()
	close(s.completed)
	<-drained

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err == nil {
		err = supErr
	}
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Items: int(atomic.LoadInt64(&s.total)), Elapsed: time.Since(start)}
	if degraded != nil {
		degraded.Retries = int(atomic.LoadInt64(&s.retries))
		res.Degraded = degraded
	}
	return res, nil
}

// runStage is one supervised stage goroutine: it applies the planned
// stage (and its hand-off) under the recovery policy and escalates dead
// verdicts.
//
// Fused fault semantics: for each constituent, the injector's stage-point
// rules are consulted for every name the constituent covers — a pure
// consultation (no work attached) for all but the last, so injected
// delays, transient errors, stalls and deaths aimed at a fused-away stage
// still fire — and the constituent's Fn runs exactly once, attached to
// the last covered name's consultation (faults.Apply never re-runs work
// on injected failures, so this is retry-safe). The planned stage's
// single outgoing hand-off then consults the transfer-point rules of
// every covered name.
func (s *supervised) runStage(p int, ps plannedStage, src <-chan carried, dst chan carried) error {
	pctx := s.pctx[p]
	reportDeath := func(reason string) {
		s.deaths <- deathNote{pipeline: p, reason: reason} // buffered: never blocks
	}
	// item and st live across iterations so runFn, the work closure handed
	// to faults.Apply, is built once per goroutine rather than per item.
	var item Item
	var st *Stage
	runFn := func() error {
		if st.Fn != nil {
			item = st.Fn(item)
		}
		return nil
	}
	// apply runs one fault point; exit reports whether the goroutine must
	// return, with err as its result.
	apply := func(transfer bool, name string, seq int, work func() error) (exit bool, err error) {
		ap := faults.Apply(pctx, s.inj, &s.pol, transfer, p, name, seq, work)
		if ap.Retries > 0 {
			atomic.AddInt64(&s.retries, int64(ap.Retries))
		}
		switch ap.Verdict {
		case faults.VerdictOK:
			return false, nil
		case faults.VerdictDead:
			reportDeath(ap.Reason)
			return true, nil
		case faults.VerdictCancelled:
			return true, s.ctxOutcome()
		}
		return true, fmt.Errorf("pipe: stage %s failed: %w", name, ap.Err)
	}
	for {
		var in carried
		var ok bool
		select {
		case in, ok = <-src:
		case <-pctx.Done():
			return s.ctxOutcome()
		}
		if !ok {
			if dst != s.completed {
				close(dst)
			}
			return nil
		}
		item = in.item
		if s.inj != nil && s.inj.Dead(p, item.Seq) {
			reportDeath(fmt.Sprintf("injected core death at item %d", item.Seq))
			return nil
		}
		for pi := range ps.parts {
			st = &ps.parts[pi]
			names := st.covers()
			for _, name := range names[:len(names)-1] {
				if exit, err := apply(false, name, item.Seq, nil); exit {
					return err
				}
			}
			if exit, err := apply(false, names[len(names)-1], item.Seq, runFn); exit {
				return err
			}
		}
		// The hand-off to the next stage (or the sink) is its own fault
		// point: flaky transfers are retried, slow ones delayed. Every
		// covered name's transfer rules guard the one physical hand-off.
		for _, name := range ps.covered {
			if exit, err := apply(true, name, item.Seq, nil); exit {
				return err
			}
		}
		select {
		case dst <- carried{carrier: p, item: item}:
		case <-pctx.Done():
			return s.ctxOutcome()
		}
	}
}

// ctxOutcome distinguishes a run-level cancellation (propagate the error)
// from a pipeline-local death or post-settlement teardown cancellation
// (exit quietly, nil — the supervisor's verdict is authoritative).
func (s *supervised) ctxOutcome() error {
	if s.settled.Load() {
		return nil
	}
	return s.ctx.Err()
}

// safeCollect delivers one item to Collect, converting a panic into an
// error.
func (s *supervised) safeCollect(item Item) (err error) {
	if s.c.Collect == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipe: collect panicked: %v", r)
		}
	}()
	s.c.Collect(item)
	return nil
}

// supervise is the routing/recovery state machine. It returns the
// degraded report (nil for a clean run) and an error when the run cannot
// complete (all pipelines dead, or the run context was cancelled).
func (s *supervised) supervise() (*faults.Degraded, error) {
	var (
		queue      []Item
		inflight   = make(map[ident]carried)
		originsEOF = 0
		dead       = make(map[int]string)
		rr         = 0
		degraded   *faults.Degraded
	)
	alive := func(p int) bool { _, d := dead[p]; return !d }
	carrierFor := func(origin int) int {
		if alive(origin) {
			return origin
		}
		for i := 0; i < s.k; i++ {
			c := rr % s.k
			rr++
			if alive(c) {
				return c
			}
		}
		return -1 // unreachable: handleDeath errors out before all k die
	}
	handleDeath := func(n deathNote) error {
		if !alive(n.pipeline) {
			return nil // duplicate report (several stages can notice one death)
		}
		dead[n.pipeline] = n.reason
		if degraded == nil {
			degraded = &faults.Degraded{}
		}
		degraded.AddDeath(n.pipeline, n.reason)
		s.pol.Notify(faults.Event{Kind: faults.EventDeath, Pipeline: n.pipeline, Reason: n.reason})
		s.pcancel[n.pipeline]()
		if len(dead) == s.k {
			return fmt.Errorf("pipe: all %d pipelines dead, last: pipeline %d: %s", s.k, n.pipeline, n.reason)
		}
		// Re-queue the dead carrier's in-flight snapshots, in deterministic
		// order, for redistribution onto survivors.
		var lost []ident
		for id, rec := range inflight {
			if rec.carrier == n.pipeline {
				lost = append(lost, id)
			}
		}
		sort.Slice(lost, func(i, j int) bool {
			if lost[i].origin != lost[j].origin {
				return lost[i].origin < lost[j].origin
			}
			return lost[i].seq < lost[j].seq
		})
		for _, id := range lost {
			rec := inflight[id]
			delete(inflight, id)
			queue = append(queue, rec.item)
			degraded.Redispatched++
			s.pol.Notify(faults.Event{Kind: faults.EventRedispatch, Pipeline: n.pipeline, Seq: id.seq})
		}
		return nil
	}

	for {
		if originsEOF == s.k && len(queue) == 0 && len(inflight) == 0 {
			for p, ch := range s.ins {
				if alive(p) {
					close(ch)
				}
			}
			return degraded, nil
		}

		// Head-of-queue dispatch target, recomputed every turn so deaths
		// retarget queued work automatically. A nil channel disables the
		// send arm while the queue is empty.
		var sendCh chan carried
		var head Item
		target := -1
		if len(queue) > 0 {
			head = queue[0]
			target = carrierFor(head.Pipeline)
			sendCh = s.ins[target]
		}
		// Stop pulling from the feeders while the backlog is deep, so a
		// shrunken survivor set doesn't buffer entire redistributed streams.
		feedCh := s.feedCh
		if len(queue) >= 4*s.k {
			feedCh = nil
		}

		select {
		case m := <-feedCh:
			if m.eof {
				originsEOF++
			} else {
				queue = append(queue, m.item)
			}
		case n := <-s.deaths:
			if err := handleDeath(n); err != nil {
				return nil, err
			}
		case c := <-s.completed:
			if !alive(c.carrier) {
				break // its redone copy is queued or in flight elsewhere
			}
			delete(inflight, ident{c.item.Pipeline, c.item.Seq})
			if err := s.safeCollect(c.item); err != nil {
				return nil, err
			}
			atomic.AddInt64(&s.total, 1)
		case sendCh <- carried{carrier: target, item: head}:
			inflight[ident{head.Pipeline, head.Seq}] = carried{carrier: target, item: head}
			queue = queue[1:]
		case <-s.ctx.Done():
			return nil, s.ctx.Err()
		}
	}
}
