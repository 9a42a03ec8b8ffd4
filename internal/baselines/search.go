package baselines

import (
	"context"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/rewrite"
)

// BeamSearch is the QUESO / Quartz proxy: symbolic rewrite rules scheduled
// by a size-bounded beam (QUESO's MaxBeam). Rewrite-only — no resynthesis —
// which is exactly why the ionq gate set is hard for it (Fig. 9).
type BeamSearch struct {
	Tool  string
	Width int
	// Registry, when set, supplies the transformation portfolio (only its
	// fast entries are used — the proxy is rewrite-only); nil selects
	// opt.DefaultRegistry().
	Registry *opt.Registry
}

// NewQUESO mirrors QUESO's MaxBeam instantiation.
func NewQUESO() *BeamSearch { return &BeamSearch{Tool: "queso", Width: 32} }

// NewQuartz mirrors Quartz: a wider beam over the same rule class.
func NewQuartz() *BeamSearch { return &BeamSearch{Tool: "quartz", Width: 64} }

// Name implements Optimizer.
func (b *BeamSearch) Name() string { return b.Tool }

// Optimize implements Optimizer.
func (b *BeamSearch) Optimize(c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, budget time.Duration, seed int64) *circuit.Circuit {
	return b.OptimizeContext(context.Background(), c, gs, cost, budget, seed)
}

// OptimizeContext is Optimize under ctx: the beam loop returns its
// best-so-far at the first cancelled dequeue.
func (b *BeamSearch) OptimizeContext(ctx context.Context, c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, budget time.Duration, seed int64) *circuit.Circuit {
	reg := b.Registry
	if reg == nil {
		reg = opt.DefaultRegistry()
	}
	ts, err := reg.Build(gs, opt.InstantiateOptions{EpsilonF: 1e-8})
	if err != nil {
		return c
	}
	opts := opt.DefaultOptions()
	opts.Cost = cost
	opts.TimeBudget = budget
	opts.Seed = seed
	opts.Context = ctx
	res := opt.Beam(c, opt.FilterFast(ts), opts, b.Width)
	return keepBetter(c, res.Best, cost)
}

// Lookahead is the Quarl proxy: guided rule selection instead of uniform
// search. A trained RL policy is irreproducible without the authors' GPU
// checkpoints; its effect — picking locally promising rules, including
// cost-neutral moves that enable later reductions — is modelled by greedy
// rollout search with depth-2 lookahead. Rewrite-only, like Quarl.
type Lookahead struct {
	Tool string
	// Depth of the lookahead (2 in the proxy).
	Depth int
}

// NewQuarl builds the Quarl proxy.
func NewQuarl() *Lookahead { return &Lookahead{Tool: "quarl", Depth: 2} }

// Name implements Optimizer.
func (l *Lookahead) Name() string { return l.Tool }

// Optimize implements Optimizer. Branch evaluation runs on one persistent
// rewrite.Engine: every candidate step is applied in place, scored, and
// rolled back via the engine's transaction marks, so the per-branch circuit
// copies (and DAG rebuilds) of the pure FullPass pipeline disappear; the
// chosen step is then re-applied (deterministic) and committed.
func (l *Lookahead) Optimize(c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, budget time.Duration, seed int64) *circuit.Circuit {
	return l.OptimizeContext(context.Background(), c, gs, cost, budget, seed)
}

// OptimizeContext is Optimize under ctx: cancellation is checked at
// every outer greedy step (the committed best is returned mid-rollout).
func (l *Lookahead) OptimizeContext(ctx context.Context, c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, budget time.Duration, seed int64) *circuit.Circuit {
	rules, err := rewrite.RulesFor(gs.Name)
	if err != nil {
		return c
	}
	rng := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(budget)
	eng := rewrite.NewEngine(c)

	// apply runs rule r full-pass plus cleanup on the engine, reporting
	// whether the rule matched anywhere.
	apply := func(r *rewrite.Rule) bool {
		if eng.FullPass(r, 0) == 0 {
			return false
		}
		eng.ApplyPass(opt.CleanupPass, gs)
		return true
	}

	eng.ApplyPass(opt.CleanupPass, gs)
	eng.Commit()
	best := eng.Snapshot()
	bestCost := cost(best)

	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		curCost := cost(eng.Circuit())
		bestRule := -1
		bestScore := curCost
		improved := false
		for ri, r1 := range rules {
			m1 := eng.Mark()
			if !apply(r1) {
				continue
			}
			// Depth-2 rollout: the value of the step is the best reachable
			// cost.
			v := cost(eng.Circuit())
			if l.Depth >= 2 {
				for _, r2 := range rules {
					m2 := eng.Mark()
					if apply(r2) {
						if cv := cost(eng.Circuit()); cv < v {
							v = cv
						}
					}
					eng.Rollback(m2)
					if time.Now().After(deadline) {
						break
					}
				}
			}
			if v < bestScore || (v == bestScore && bestRule < 0) {
				bestScore, bestRule = v, ri
				improved = v < curCost
			}
			eng.Rollback(m1)
			if time.Now().After(deadline) {
				break
			}
		}
		if bestRule < 0 {
			break
		}
		apply(rules[bestRule])
		eng.Commit()
		if cv := cost(eng.Circuit()); cv < bestCost {
			best, bestCost = eng.Snapshot(), cv
		}
		if !improved {
			// Plateau: take a random neutral move to diversify, like the
			// policy's exploration, then continue.
			r := rules[rng.Intn(len(rules))]
			if apply(r) {
				eng.Commit()
			} else {
				break
			}
		}
	}
	return keepBetter(c, best, cost)
}

// PyZX is the phase-polynomial T-count optimizer proxy (see package
// phasepoly): strong T reduction, CX count untouched.
type PyZX struct{}

// NewPyZX builds the PyZX proxy.
func NewPyZX() *PyZX { return &PyZX{} }

// Name implements Optimizer.
func (p *PyZX) Name() string { return "pyzx" }

// Optimize implements Optimizer. The pipeline iterates phase folding with
// single-qubit simplifications to a fixpoint: reducing H gates between
// folds merges phase regions, which is (a fragment of) what PyZX's
// full_reduce achieves with Hadamard gadgets. Multi-qubit gates are never
// touched, so the CX count is exactly preserved.
func (p *PyZX) Optimize(c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, budget time.Duration, seed int64) *circuit.Circuit {
	return p.OptimizeContext(context.Background(), c, gs, cost, budget, seed)
}

// OptimizeContext is Optimize under ctx: cancellation is observed
// between fixpoint rounds.
func (p *PyZX) OptimizeContext(ctx context.Context, c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, _ time.Duration, _ int64) *circuit.Circuit {
	rules, _ := rewrite.RulesFor(gs.Name)
	var oneQ []*rewrite.Rule
	for _, r := range rules {
		if r.NumQubits == 1 && r.Delta() < 0 {
			oneQ = append(oneQ, r)
		}
	}
	eng := rewrite.NewEngine(c)
	for round := 0; round < 8; round++ {
		if ctx.Err() != nil {
			break
		}
		before := eng.Circuit().Len()
		eng.ApplyPass(opt.PhaseFoldPass, gs)
		// cancel1q only ever removes gates, so equal length means no-op.
		if c1 := cancel1q(eng.Circuit()); c1.Len() != eng.Circuit().Len() {
			eng.SetCircuit(c1)
		}
		for _, r := range oneQ {
			eng.FullPass(r, 0)
		}
		eng.Commit()
		if eng.Circuit().Len() == before {
			break
		}
	}
	out := eng.Circuit()
	// PyZX optimizes T count regardless of the caller's cost; it may not
	// improve other metrics, and by construction never touches CX count.
	if out.TCount() > c.TCount() {
		return c
	}
	return out
}

// cancel1q removes adjacent self-inverse single-qubit pairs (h·h, x·x)
// without ever touching multi-qubit gates, preserving the PyZX profile.
func cancel1q(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NumQubits)
	top := make([]int, c.NumQubits) // index into out.Gates of wire top, or -1
	for q := range top {
		top[q] = -1
	}
	alive := []bool{}
	for _, g := range c.Gates {
		if len(g.Qubits) == 1 && (g.Name == "h" || g.Name == "x") {
			q := g.Qubits[0]
			if t := top[q]; t >= 0 && alive[t] && out.Gates[t].Name == g.Name &&
				len(out.Gates[t].Qubits) == 1 {
				alive[t] = false
				// Restore: scan back for the previous alive gate on q.
				top[q] = -1
				for i := t - 1; i >= 0; i-- {
					if alive[i] && out.Gates[i].OnQubit(q) {
						top[q] = i
						break
					}
				}
				continue
			}
		}
		idx := len(out.Gates)
		out.Gates = append(out.Gates, g)
		alive = append(alive, true)
		for _, q := range g.Qubits {
			top[q] = idx
		}
	}
	final := circuit.New(c.NumQubits)
	for i, g := range out.Gates {
		if alive[i] {
			final.Gates = append(final.Gates, g)
		}
	}
	return final
}
