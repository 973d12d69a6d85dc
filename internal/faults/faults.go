// Package faults is the deterministic failure model of the runtime
// stage: a seeded scenario specification (FaultPlan) compiled into an
// Injector that answers, in simulated time, whether a node crashes,
// whether a transfer attempt fails, and how much a task execution is
// slowed by a straggling node.
//
// Determinism contract: every decision is a pure function of the plan
// seed and a stable event identity (node index, sub-batch round, file,
// destination, attempt number) hashed through SplitMix64 — never of
// call order, wall-clock time, goroutine scheduling, or map iteration.
// A fixed FaultPlan therefore reproduces byte-identical failure
// sequences, recovery schedules, and metrics at any worker count, and
// the package is part of schedlint's deterministic path set (no wall
// clock, no global rand).
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// FaultPlan is a complete chaos scenario: who fails, how often, and
// what the recovery budgets are. The zero value (and nil) injects
// nothing — Enabled reports false and the runtime runs the zero-fault
// case of its one commit path. All times and rates are in simulated
// seconds.
type FaultPlan struct {
	// Seed drives every random decision in the scenario.
	Seed int64 `json:"seed"`

	// NodeMTTF is the mean time to failure of each compute node
	// (exponential inter-crash times); 0 disables crashes. A crashed
	// node loses its disk cache and its unfinished tasks, then rejoins
	// empty at the next sub-batch boundary.
	NodeMTTF float64 `json:"node_mttf,omitempty"`
	// PerNodeMTTF optionally overrides NodeMTTF per compute node
	// (index = node; 0 entries fall back to NodeMTTF).
	PerNodeMTTF []float64 `json:"per_node_mttf,omitempty"`

	// LinkFailProb is the probability that any single transfer attempt
	// (remote or replica) fails partway through.
	LinkFailProb float64 `json:"link_fail_prob,omitempty"`

	// StragglerProb is the probability that a task execution is slowed;
	// StragglerFactor is the maximum slowdown multiplier (the factor is
	// drawn uniformly from [1, StragglerFactor]).
	StragglerProb   float64 `json:"straggler_prob,omitempty"`
	StragglerFactor float64 `json:"straggler_factor,omitempty"`

	// MaxTransferRetries bounds the attempts for one file staging
	// within one task commit (default 4). Exhaustion re-queues the
	// task.
	MaxTransferRetries int `json:"max_transfer_retries,omitempty"`
	// TaskRetryBudget bounds how many times one task may be re-queued
	// (crash or staging failure) before it is abandoned as Degraded
	// (default 3).
	TaskRetryBudget int `json:"task_retry_budget,omitempty"`

	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between transfer attempts: attempt a retries no earlier than
	// failure time + min(BackoffCap, BackoffBase·2^(a-1)).
	// Defaults: 0.5 s base, 30 s cap.
	BackoffBase float64 `json:"backoff_base,omitempty"`
	BackoffCap  float64 `json:"backoff_cap,omitempty"`
}

// Enabled reports whether the plan injects any fault at all. Nil and
// zero-valued plans are disabled: they compile to no Injector, and the
// runtime draws no fault.
func (p *FaultPlan) Enabled() bool {
	if p == nil {
		return false
	}
	if p.NodeMTTF > 0 || p.LinkFailProb > 0 || p.StragglerProb > 0 {
		return true
	}
	for _, m := range p.PerNodeMTTF {
		if m > 0 {
			return true
		}
	}
	return false
}

// WithDefaults returns a copy with the budget/backoff fields filled in
// where unset. The failure-rate fields are never defaulted: absent
// rates mean "this fault does not occur".
func (p FaultPlan) WithDefaults() FaultPlan {
	if p.MaxTransferRetries <= 0 {
		p.MaxTransferRetries = 4
	}
	if p.TaskRetryBudget <= 0 {
		p.TaskRetryBudget = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 0.5
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 30
	}
	if p.StragglerFactor < 1 {
		p.StragglerFactor = 1
	}
	return p
}

// Validate rejects plans outside the model's domain.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	if p.NodeMTTF < 0 {
		return fmt.Errorf("faults: NodeMTTF must be >= 0, got %g", p.NodeMTTF)
	}
	for i, m := range p.PerNodeMTTF {
		if m < 0 {
			return fmt.Errorf("faults: PerNodeMTTF[%d] must be >= 0, got %g", i, m)
		}
	}
	if p.LinkFailProb < 0 || p.LinkFailProb > 1 {
		return fmt.Errorf("faults: LinkFailProb must be in [0,1], got %g", p.LinkFailProb)
	}
	if p.StragglerProb < 0 || p.StragglerProb > 1 {
		return fmt.Errorf("faults: StragglerProb must be in [0,1], got %g", p.StragglerProb)
	}
	if p.StragglerFactor < 0 {
		return fmt.Errorf("faults: StragglerFactor must be >= 0, got %g", p.StragglerFactor)
	}
	for _, x := range []float64{p.NodeMTTF, p.LinkFailProb, p.StragglerProb,
		p.StragglerFactor, p.BackoffBase, p.BackoffCap} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("faults: plan contains non-finite fields")
		}
	}
	for i, m := range p.PerNodeMTTF {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("faults: PerNodeMTTF[%d] is non-finite", i)
		}
	}
	if p.BackoffBase < 0 || p.BackoffCap < 0 {
		return fmt.Errorf("faults: backoff fields must be >= 0")
	}
	// Negative retry counts have no meaning of their own (WithDefaults
	// treats <= 0 as unset), and permitting them would make Spec()
	// non-canonical: -4 and 0 are the same plan with different specs.
	if p.MaxTransferRetries < 0 || p.TaskRetryBudget < 0 {
		return fmt.Errorf("faults: retry counts must be >= 0")
	}
	return nil
}

// StragglerDist is the marginal distribution of a plan's execution
// slowdown factor: 1 (no slowdown) with probability 1−Prob, otherwise
// uniform on [1, Factor]. Speculation policies derive their watchdog
// thresholds from its quantiles.
type StragglerDist struct {
	Prob   float64
	Factor float64
}

// Quantile returns the q-quantile of the slowdown factor (q clamped
// to [0, 1]). Degenerate distributions (no stragglers, or factor ≤ 1)
// answer 1 for every q. For q above the no-slowdown mass the quantile
// interpolates linearly through the uniform tail:
//
//	Quantile(q) = 1 + (Factor−1) · (q − (1−Prob)) / Prob.
func (d StragglerDist) Quantile(q float64) float64 {
	if d.Prob <= 0 || d.Factor <= 1 {
		return 1
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if q <= 1-d.Prob {
		return 1
	}
	return 1 + (d.Factor-1)*(q-(1-d.Prob))/d.Prob
}

// StragglerDist returns the plan's slowdown distribution (zero-valued
// for nil plans).
func (p *FaultPlan) StragglerDist() StragglerDist {
	if p == nil {
		return StragglerDist{}
	}
	return StragglerDist{Prob: p.StragglerProb, Factor: p.StragglerFactor}
}

// Presets returns the names of the built-in scenarios, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// presets are the built-in scenarios of the chaos matrix. "none" is
// the fault-free control; "mild" models an occasional flaky link and
// a rare crash; "harsh" models a cluster losing nodes every few
// thousand simulated seconds with a 10% flaky link.
var presets = map[string]FaultPlan{
	"none": {},
	"mild": {
		NodeMTTF:      50_000,
		LinkFailProb:  0.02,
		StragglerProb: 0.05, StragglerFactor: 2,
	},
	"harsh": {
		NodeMTTF:      4_000,
		LinkFailProb:  0.10,
		StragglerProb: 0.15, StragglerFactor: 4,
	},
}

// Parse builds a FaultPlan from a CLI scenario spec: either a preset
// name ("none", "mild", "harsh"), a comma-separated key=value list
// (seed, mttf, pernode, linkp, stragp, stragf, retries, budget,
// backoff, cap — pernode takes colon-separated per-node MTTFs), or a
// preset followed by overrides ("harsh,seed=7,linkp=0.2").
// The empty string parses to a nil (disabled) plan.
func Parse(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	var p FaultPlan
	parts := strings.Split(spec, ",")
	start := 0
	if base, ok := presets[strings.ToLower(parts[0])]; ok {
		p = base
		start = 1
	} else if !strings.Contains(parts[0], "=") {
		return nil, fmt.Errorf("faults: unknown scenario %q (presets: %s, or key=value pairs)",
			parts[0], strings.Join(Presets(), ", "))
	}
	for _, kv := range parts[start:] {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("faults: malformed spec entry %q (want key=value)", kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("faults: bad retries %q: %v", val, err)
			}
			p.MaxTransferRetries = n
		case "budget":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("faults: bad budget %q: %v", val, err)
			}
			p.TaskRetryBudget = n
		case "pernode":
			var ms []float64
			for _, part := range strings.Split(val, ":") {
				m, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
				if err != nil {
					return nil, fmt.Errorf("faults: bad pernode entry %q: %v", part, err)
				}
				ms = append(ms, m)
			}
			p.PerNodeMTTF = ms
		case "mttf", "linkp", "stragp", "stragf", "backoff", "cap":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad %s %q: %v", key, val, err)
			}
			switch key {
			case "mttf":
				p.NodeMTTF = f
			case "linkp":
				p.LinkFailProb = f
			case "stragp":
				p.StragglerProb = f
			case "stragf":
				p.StragglerFactor = f
			case "backoff":
				p.BackoffBase = f
			case "cap":
				p.BackoffCap = f
			}
		default:
			return nil, fmt.Errorf("faults: unknown spec key %q (want seed, mttf, pernode, linkp, stragp, stragf, retries, budget, backoff, cap)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Spec renders the plan as its canonical spec string: Parse(p.Spec())
// yields a plan identical to p for every enabled plan (disabled plans
// render as "none", which parses to nil — behaviorally the same
// injector). Each non-zero field is emitted independently: the old
// String dropped StragglerFactor whenever StragglerProb was zero and
// always dropped the backoff shape, so round-tripping a partially-set
// plan silently changed it.
func (p *FaultPlan) Spec() string {
	if !p.Enabled() {
		return "none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	if p.NodeMTTF > 0 {
		fmt.Fprintf(&b, ",mttf=%g", p.NodeMTTF)
	}
	if len(p.PerNodeMTTF) > 0 {
		b.WriteString(",pernode=")
		for i, m := range p.PerNodeMTTF {
			if i > 0 {
				b.WriteByte(':')
			}
			fmt.Fprintf(&b, "%g", m)
		}
	}
	if p.LinkFailProb > 0 {
		fmt.Fprintf(&b, ",linkp=%g", p.LinkFailProb)
	}
	if p.StragglerProb > 0 {
		fmt.Fprintf(&b, ",stragp=%g", p.StragglerProb)
	}
	if p.StragglerFactor > 0 {
		fmt.Fprintf(&b, ",stragf=%g", p.StragglerFactor)
	}
	if p.MaxTransferRetries > 0 {
		fmt.Fprintf(&b, ",retries=%d", p.MaxTransferRetries)
	}
	if p.TaskRetryBudget > 0 {
		fmt.Fprintf(&b, ",budget=%d", p.TaskRetryBudget)
	}
	if p.BackoffBase > 0 {
		fmt.Fprintf(&b, ",backoff=%g", p.BackoffBase)
	}
	if p.BackoffCap > 0 {
		fmt.Fprintf(&b, ",cap=%g", p.BackoffCap)
	}
	return b.String()
}

// String renders the plan as a spec string Parse accepts.
func (p *FaultPlan) String() string { return p.Spec() }
