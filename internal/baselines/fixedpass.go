package baselines

import (
	"context"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/rewrite"
)

// FixedPass is the "fixed sequence of passes" optimizer family of Table 3
// (Qiskit, tket, VOQC): deterministic, fast, local, no search. The three
// profiles differ in pass inventory, mirroring the tools' relative strength
// on two-qubit reduction.
//
// The pipeline runs against one persistent rewrite.Engine: rule passes
// reuse its incremental DAG and match caches across rounds (the rule
// library is compiled once per run, so each rule keeps one cache), and the
// whole-circuit passes report changed counts instead of being compared
// deep-Equal against their input.
type FixedPass struct {
	Tool   string
	Passes []Pass
	// Rounds repeats the pipeline (tket-style deeper pipelines).
	Rounds int
}

// Pass is one deterministic rewrite pass over the pipeline's engine, given
// the gate set's rule library. It returns how many sites it changed (zero
// for a no-op).
type Pass func(e *rewrite.Engine, gs *gateset.GateSet, rules []*rewrite.Rule) int

// CleanupPass cancels inverse pairs and merges adjacent rotations.
func CleanupPass(e *rewrite.Engine, gs *gateset.GateSet, _ []*rewrite.Rule) int {
	return e.ApplyPass(opt.CleanupPass, gs)
}

// FusePass fuses single-qubit runs (continuous sets only).
func FusePass(e *rewrite.Engine, gs *gateset.GateSet, _ []*rewrite.Rule) int {
	if !gs.Continuous() {
		return 0
	}
	return e.ApplyPass(opt.Fuse1QPass, gs)
}

// FoldPass runs global phase folding (rotation merging).
func FoldPass(e *rewrite.Engine, gs *gateset.GateSet, _ []*rewrite.Rule) int {
	return e.ApplyPass(opt.PhaseFoldPass, gs)
}

// RulesPass applies every library rule once, full-pass, in a fixed order
// (commutation-aware cancellation).
func RulesPass(e *rewrite.Engine, _ *gateset.GateSet, rules []*rewrite.Rule) int {
	sites := 0
	for _, r := range rules {
		if r.Delta() >= 0 {
			continue // fixed-pass pipelines only run reducing rules
		}
		sites += e.FullPass(r, 0)
	}
	return sites
}

// CommutationPass applies the size-neutral commutation rules once each,
// then the reducing rules — the "commutative cancellation" trick of
// Qiskit/tket pipelines.
func CommutationPass(e *rewrite.Engine, gs *gateset.GateSet, rules []*rewrite.Rule) int {
	sites := 0
	for _, r := range rules {
		if r.Delta() == 0 {
			sites += e.FullPass(r, 0)
		}
	}
	return sites + RulesPass(e, gs, rules)
}

// The three fixed-pass profiles. Relative strength (tket > qiskit ≳ voqc on
// 2q reduction) follows the paper's Q1 ordering.

// NewQiskit mirrors Qiskit -O3: cleanup, 1q fusion, commutative
// cancellation, two rounds.
func NewQiskit() *FixedPass {
	return &FixedPass{
		Tool:   "qiskit",
		Passes: []Pass{CleanupPass, FusePass, CommutationPass, CleanupPass},
		Rounds: 2,
	}
}

// NewTket mirrors tket's deeper default pipeline: adds phase folding and an
// extra round.
func NewTket() *FixedPass {
	return &FixedPass{
		Tool:   "tket",
		Passes: []Pass{CleanupPass, FoldPass, FusePass, CommutationPass, CleanupPass},
		Rounds: 3,
	}
}

// NewVOQC mirrors VOQC's verified pass list: rotation merging and
// cancellation, no generic 1q resynthesis.
func NewVOQC() *FixedPass {
	return &FixedPass{
		Tool:   "voqc",
		Passes: []Pass{CleanupPass, FoldPass, RulesPass, CleanupPass},
		Rounds: 2,
	}
}

// Name implements Optimizer.
func (f *FixedPass) Name() string { return f.Tool }

// Optimize implements Optimizer. Fixed-pass tools ignore the budget and the
// seed: they are deterministic and fast.
func (f *FixedPass) Optimize(c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, budget time.Duration, seed int64) *circuit.Circuit {
	return f.OptimizeContext(context.Background(), c, gs, cost, budget, seed)
}

// OptimizeContext is Optimize under ctx: cancellation is observed
// between rounds (individual passes are fast and always run to completion,
// so the committed state is a whole-pipeline prefix, never a torn pass).
func (f *FixedPass) OptimizeContext(ctx context.Context, c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, _ time.Duration, _ int64) *circuit.Circuit {
	return keepBetter(c, f.run(ctx, c, gs).Circuit(), cost)
}

// run executes the pipeline on a fresh engine over c and returns the
// engine.
func (f *FixedPass) run(ctx context.Context, c *circuit.Circuit, gs *gateset.GateSet) *rewrite.Engine {
	// A gate set without a rule library runs no rule passes: nil rules.
	rules, _ := rewrite.RulesFor(gs.Name)
	eng := rewrite.NewEngine(c)
	rounds := f.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		if ctx.Err() != nil {
			break
		}
		before := eng.Circuit().Len()
		for _, p := range f.Passes {
			p(eng, gs, rules)
		}
		eng.Commit()
		if eng.Circuit().Len() == before {
			break
		}
	}
	return eng
}
