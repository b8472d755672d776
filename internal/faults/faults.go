// Package faults is the deterministic fault-injection and recovery plane
// of the pipeline runtime. The SCC the paper ran on is a fragile research
// chip — no ECC, per-island DVFS, a host link that stalls — and a runtime
// that serves real traffic has to assume stages fail, cores die, and
// transfers flake. This package provides
//
//   - Plan: a seeded, declarative description of faults to inject
//     (transient stage errors, latency spikes, permanent stalls, pipeline
//     "core death", flaky transfers), compiled by NewInjector into a
//     deterministic Injector: every decision is a pure hash of
//     (seed, rule, pipeline, stage, seq), so a seeded chaos run makes
//     identical choices regardless of goroutine scheduling;
//   - Injector: the interface the execution backends (pipe.Chain,
//     core.ExecContext, the serve worker pool) consult at their fault
//     points — implement it directly for custom chaos;
//   - RecoveryPolicy + Apply: the supervision that makes injected (and
//     organic) faults survivable — bounded retries with exponential
//     backoff and deterministic jitter for transient failures, a stall
//     watchdog with per-stage deadlines, and escalation to pipeline death
//     when retries run out;
//   - Degraded: the report a run returns when it survived pipeline deaths
//     by re-partitioning the dead pipeline's work across survivors.
//
// Supervision is part of the one real-execution runtime (pipe.Chain, onto
// which core.ExecContext lowers), not a second code path: with a nil
// Injector, Apply runs each stage's work inline with no faults, and a nil
// RecoveryPolicy takes the defaults.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind classifies an injected fault.
type Kind int

const (
	// KindTransient makes a stage application fail with a retryable error.
	KindTransient Kind = iota
	// KindDelay imposes a one-shot latency spike before a stage runs.
	KindDelay
	// KindStall wedges a stage permanently: the stage never completes the
	// item. Survivable only through stall detection (RecoveryPolicy) or,
	// in a simulation, reported as a quiesce naming the stuck stage.
	KindStall
	// KindDeath kills a pipeline permanently from a given item onward —
	// the paper's "core death". Its remaining work must be re-partitioned.
	KindDeath
	// KindTransfer makes an item hand-off fail with a retryable error
	// (corruption detected at the receiver; the send is redone).
	KindTransfer
	// KindTransferSlow slows an item hand-off down by Delay.
	KindTransferSlow
)

var kindNames = [...]string{"transient", "delay", "stall", "death", "transfer", "transfer-slow"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Any is the wildcard for Rule.Pipeline and Rule.Seq.
const Any = -1

// Rule describes one fault to inject. The zero value of the targeting
// fields is NOT the wildcard — use Any (pipeline, seq) and "" (stage)
// explicitly; NewRule fills them in.
type Rule struct {
	Kind Kind
	// Pipeline targets one pipeline, or Any.
	Pipeline int
	// Stage targets one stage by name ("" = any stage).
	Stage string
	// Seq targets one item/frame sequence number exactly (the rule then
	// fires deterministically on that item), or Any, in which case Prob
	// gates each consultation through the seeded hash. For KindDeath an
	// exact Seq means "dies at that item and stays dead".
	Seq int
	// Prob is the per-consultation firing probability for Seq == Any.
	Prob float64
	// Times is how many consecutive attempts of one item fail for
	// KindTransient/KindTransfer (default 1: the first retry succeeds).
	// Set it above the policy's MaxRetries to exhaust the retry budget.
	Times int
	// Delay is the injected latency for KindDelay/KindTransferSlow (and
	// the simulated stall charge some backends apply for KindStall).
	Delay time.Duration
}

// NewRule returns a wildcard rule of the given kind: any pipeline, any
// stage, probability gated at p.
func NewRule(kind Kind, p float64) Rule {
	return Rule{Kind: kind, Pipeline: Any, Stage: "", Seq: Any, Prob: p}
}

func (r Rule) times() int {
	if r.Times <= 0 {
		return 1
	}
	return r.Times
}

// matches reports whether the rule targets this consultation point.
func (r Rule) matches(pipeline int, stage string, seq int) bool {
	if r.Pipeline != Any && r.Pipeline != pipeline {
		return false
	}
	if r.Stage != "" && r.Stage != stage {
		return false
	}
	if r.Seq != Any && r.Seq != seq {
		return false
	}
	return true
}

// Plan is a seeded set of fault rules. Compile it with NewInjector.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// Validate reports the first malformed rule.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		if r.Kind < KindTransient || r.Kind > KindTransferSlow {
			return fmt.Errorf("faults: rule %d has unknown kind %d", i, int(r.Kind))
		}
		if r.Pipeline < Any {
			return fmt.Errorf("faults: rule %d pipeline %d (want >= -1)", i, r.Pipeline)
		}
		if r.Seq < Any {
			return fmt.Errorf("faults: rule %d seq %d (want >= -1)", i, r.Seq)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("faults: rule %d probability %g out of [0,1]", i, r.Prob)
		}
		if r.Seq == Any && r.Prob == 0 {
			return fmt.Errorf("faults: rule %d can never fire (seq=Any, prob=0)", i)
		}
		if r.Delay < 0 {
			return fmt.Errorf("faults: rule %d negative delay %v", i, r.Delay)
		}
		if (r.Kind == KindDelay || r.Kind == KindTransferSlow) && r.Delay == 0 {
			return fmt.Errorf("faults: rule %d is a %v with zero delay", i, r.Kind)
		}
		if r.Kind == KindDeath && r.Stage != "" {
			return fmt.Errorf("faults: rule %d targets a stage, but %v is pipeline-wide", i, r.Kind)
		}
	}
	return nil
}

// ParsePlan builds a Plan from a compact spec string, the format of the
// sccserved -chaos flag: comma-separated key=value clauses.
//
//	seed=N           hash seed (default 1)
//	err=P            transient stage errors with probability P
//	err=P:T          ... failing T consecutive attempts per item
//	stall=P          permanent stage stalls with probability P
//	death=P          pipeline core death with probability P per item
//	death=PIPE@SEQ   deterministic death of pipeline PIPE at item SEQ
//	delay=P:DUR      latency spikes of DUR (Go duration) with probability P
//	transfer=P       flaky (retried) transfers with probability P
//	slow=P:DUR       slowed transfers
//
// Example: "seed=7,err=0.02,stall=0.001,death=0.0005,delay=0.01:5ms".
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{Seed: 1}
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("faults: empty chaos spec")
	}
	for _, clause := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "err", "transient":
			r, err := parseProbTimes(KindTransient, val)
			if err != nil {
				return nil, err
			}
			p.Rules = append(p.Rules, r)
		case "stall":
			prob, err := parseProb(val)
			if err != nil {
				return nil, err
			}
			p.Rules = append(p.Rules, NewRule(KindStall, prob))
		case "death":
			r, err := parseDeath(val)
			if err != nil {
				return nil, err
			}
			p.Rules = append(p.Rules, r)
		case "delay":
			r, err := parseProbDelay(KindDelay, val)
			if err != nil {
				return nil, err
			}
			p.Rules = append(p.Rules, r)
		case "transfer":
			r, err := parseProbTimes(KindTransfer, val)
			if err != nil {
				return nil, err
			}
			p.Rules = append(p.Rules, r)
		case "slow":
			r, err := parseProbDelay(KindTransferSlow, val)
			if err != nil {
				return nil, err
			}
			p.Rules = append(p.Rules, r)
		default:
			return nil, fmt.Errorf("faults: unknown chaos key %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseProb(val string) (float64, error) {
	prob, err := strconv.ParseFloat(val, 64)
	if err != nil || prob < 0 || prob > 1 {
		return 0, fmt.Errorf("faults: bad probability %q", val)
	}
	return prob, nil
}

func parseProbTimes(kind Kind, val string) (Rule, error) {
	ps, ts, hasTimes := strings.Cut(val, ":")
	prob, err := parseProb(ps)
	if err != nil {
		return Rule{}, err
	}
	r := NewRule(kind, prob)
	if hasTimes {
		n, err := strconv.Atoi(ts)
		if err != nil || n < 1 {
			return Rule{}, fmt.Errorf("faults: bad attempt count %q", ts)
		}
		r.Times = n
	}
	return r, nil
}

func parseProbDelay(kind Kind, val string) (Rule, error) {
	ps, ds, ok := strings.Cut(val, ":")
	if !ok {
		return Rule{}, fmt.Errorf("faults: %v wants P:DURATION, got %q", kind, val)
	}
	prob, err := parseProb(ps)
	if err != nil {
		return Rule{}, err
	}
	d, err := time.ParseDuration(ds)
	if err != nil || d <= 0 {
		return Rule{}, fmt.Errorf("faults: bad duration %q", ds)
	}
	r := NewRule(kind, prob)
	r.Delay = d
	return r, nil
}

// parseDeath accepts either a probability or the deterministic PIPE@SEQ.
func parseDeath(val string) (Rule, error) {
	if pipe, seq, ok := strings.Cut(val, "@"); ok {
		pl, err1 := strconv.Atoi(pipe)
		sq, err2 := strconv.Atoi(seq)
		if err1 != nil || err2 != nil || pl < 0 || sq < 0 {
			return Rule{}, fmt.Errorf("faults: bad death target %q (want PIPE@SEQ)", val)
		}
		return Rule{Kind: KindDeath, Pipeline: pl, Stage: "", Seq: sq}, nil
	}
	prob, err := parseProb(val)
	if err != nil {
		return Rule{}, err
	}
	return NewRule(KindDeath, prob), nil
}

// Degraded reports how a run survived: which pipelines died (and why),
// how much work was retried, and how many items were re-partitioned onto
// surviving pipelines. The supervised runners return a nil *Degraded when
// no pipeline died — including runs that recovered from transient
// failures by retries alone.
type Degraded struct {
	// DeadPipelines lists the pipelines declared dead, ascending.
	DeadPipelines []int
	// Reasons maps each dead pipeline to why it was declared dead.
	Reasons map[int]string
	// Retries counts stage and transfer retry attempts across the run.
	Retries int
	// Redispatched counts work items re-partitioned onto survivors.
	Redispatched int
}

// Degraded reports whether the run actually lost pipelines (as opposed to
// merely retrying transient failures).
func (d *Degraded) IsDegraded() bool { return d != nil && len(d.DeadPipelines) > 0 }

func (d *Degraded) String() string {
	if d == nil {
		return "clean"
	}
	var b strings.Builder
	if len(d.DeadPipelines) == 0 {
		b.WriteString("recovered")
	} else {
		dead := append([]int(nil), d.DeadPipelines...)
		sort.Ints(dead)
		fmt.Fprintf(&b, "degraded: %d dead pipeline(s) [", len(dead))
		for i, p := range dead {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d", p)
			if r := d.Reasons[p]; r != "" {
				fmt.Fprintf(&b, " (%s)", r)
			}
		}
		b.WriteString("]")
	}
	fmt.Fprintf(&b, ", %d retries, %d items redispatched", d.Retries, d.Redispatched)
	return b.String()
}

// AddDeath records a pipeline death (idempotently); the supervised
// runners build their reports through it.
func (d *Degraded) AddDeath(pipeline int, reason string) {
	for _, p := range d.DeadPipelines {
		if p == pipeline {
			return
		}
	}
	d.DeadPipelines = append(d.DeadPipelines, pipeline)
	sort.Ints(d.DeadPipelines)
	if d.Reasons == nil {
		d.Reasons = make(map[int]string)
	}
	d.Reasons[pipeline] = reason
}
