package faults

import (
	"fmt"
	"sync"
	"time"
)

// Outcome is what an injector wants to happen at one fault point. The
// zero Outcome is a clean pass.
type Outcome struct {
	// Delay is extra latency to impose before the operation.
	Delay time.Duration
	// Err is a transient, retryable failure to inject in place of the
	// operation; the supervision layer retries with backoff.
	Err error
	// Stall wedges the operation permanently: the stage never finishes
	// this item. Real backends escalate it to pipeline death (via the
	// stall watchdog when one is configured); simulations park the stage
	// process forever, which surfaces as a quiesce naming the stage.
	Stall bool
}

// Injector is consulted by the execution backends at their fault points.
// Implementations must be safe for concurrent use and deterministic for a
// given (pipeline, stage, seq, attempt) tuple — retries re-consult with
// an incremented attempt, and redistributed work re-consults under its
// new carrier pipeline.
//
// A nil Injector everywhere means "no faults": the backends run the same
// program with every fault point passing straight through.
type Injector interface {
	// Stage is consulted before each stage application: pipeline is the
	// carrier pipeline index (-1 for shared singleton stages), stage the
	// stage name, seq the item/frame sequence number, attempt the retry
	// attempt (0 = first try).
	Stage(pipeline int, stage string, seq, attempt int) Outcome
	// Transfer is consulted at each item hand-off between stages.
	Transfer(pipeline int, stage string, seq, attempt int) Outcome
	// Dead reports whether the pipeline has permanently died at or before
	// item seq ("core death"). Once true for some seq it must stay true
	// for every later seq.
	Dead(pipeline int, seq int) bool
}

// planInjector compiles a Plan into a deterministic Injector: every
// decision is a pure hash of (seed, rule index, pipeline, stage, seq), so
// two runs with the same plan inject the same faults no matter how the
// goroutines interleave.
type planInjector struct {
	plan Plan

	// deathScan memoizes, per pipeline, how far probabilistic death rules
	// have been scanned and the earliest seq at which one fired, keeping
	// Dead monotone (dead once → dead forever) and O(1) amortized.
	mu        sync.Mutex
	deathScan map[int]*deathState
}

type deathState struct {
	scanned int // seqs [0, scanned) evaluated
	deadAt  int // earliest firing seq, or -1
}

// NewInjector compiles the plan. The plan is copied; later mutation of
// the caller's Plan does not affect the injector.
func NewInjector(p Plan) (Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := Plan{Seed: p.Seed, Rules: append([]Rule(nil), p.Rules...)}
	return &planInjector{plan: cp, deathScan: make(map[int]*deathState)}, nil
}

// MustInjector is NewInjector for statically known-good plans (tests).
func MustInjector(p Plan) Injector {
	inj, err := NewInjector(p)
	if err != nil {
		panic(err)
	}
	return inj
}

// hash64 is a splitmix64-style avalanche over an accumulated state.
func hashMix(x, v uint64) uint64 {
	x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashStr(x uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		x = hashMix(x, uint64(s[i]))
	}
	return hashMix(x, uint64(len(s)))
}

// fires evaluates one probabilistic gate deterministically.
func (pi *planInjector) fires(ruleIdx int, r Rule, pipeline int, stage string, seq int) bool {
	if r.Seq != Any {
		return true // exact-seq rules fire deterministically
	}
	x := hashMix(uint64(pi.plan.Seed), uint64(ruleIdx)+0x51ed)
	x = hashMix(x, uint64(r.Kind))
	x = hashMix(x, uint64(int64(pipeline))+1)
	x = hashStr(x, stage)
	x = hashMix(x, uint64(int64(seq)))
	return float64(x>>11)/(1<<53) < r.Prob
}

// consult walks the rules in order and returns the first firing outcome
// among the given kinds.
func (pi *planInjector) consult(pipeline int, stage string, seq, attempt int, transfer bool) Outcome {
	for i, r := range pi.plan.Rules {
		if transfer != (r.Kind == KindTransfer || r.Kind == KindTransferSlow) {
			continue
		}
		if r.Kind == KindDeath || !r.matches(pipeline, stage, seq) {
			continue
		}
		if !pi.fires(i, r, pipeline, stage, seq) {
			continue
		}
		switch r.Kind {
		case KindTransient, KindTransfer:
			if attempt < r.times() {
				op := "stage"
				if transfer {
					op = "transfer"
				}
				return Outcome{Err: fmt.Errorf("faults: injected %s failure at %s/pipeline %d/item %d (attempt %d)",
					op, stage, pipeline, seq, attempt)}
			}
		case KindDelay, KindTransferSlow:
			if attempt == 0 { // spike once, not again on each retry
				return Outcome{Delay: r.Delay}
			}
		case KindStall:
			return Outcome{Stall: true, Delay: r.Delay}
		}
	}
	return Outcome{}
}

func (pi *planInjector) Stage(pipeline int, stage string, seq, attempt int) Outcome {
	return pi.consult(pipeline, stage, seq, attempt, false)
}

func (pi *planInjector) Transfer(pipeline int, stage string, seq, attempt int) Outcome {
	return pi.consult(pipeline, stage, seq, attempt, true)
}

func (pi *planInjector) Dead(pipeline int, seq int) bool {
	if seq < 0 {
		return false
	}
	// Exact-seq death rules need no memoization.
	probRules := false
	for _, r := range pi.plan.Rules {
		if r.Kind != KindDeath {
			continue
		}
		if r.Seq != Any {
			if (r.Pipeline == Any || r.Pipeline == pipeline) && seq >= r.Seq {
				return true
			}
			continue
		}
		probRules = true
	}
	if !probRules {
		return false
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	st := pi.deathScan[pipeline]
	if st == nil {
		st = &deathState{deadAt: -1}
		pi.deathScan[pipeline] = st
	}
	// Extend the scan to cover seq, so "dead at s" implies dead forever.
	for st.deadAt < 0 && st.scanned <= seq {
		s := st.scanned
		st.scanned++
		for i, r := range pi.plan.Rules {
			if r.Kind != KindDeath || r.Seq != Any || !r.matches(pipeline, "", s) {
				continue
			}
			if pi.fires(i, r, pipeline, "", s) {
				st.deadAt = s
				break
			}
		}
	}
	return st.deadAt >= 0 && st.deadAt <= seq
}
