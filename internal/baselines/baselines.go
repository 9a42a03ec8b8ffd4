// Package baselines implements algorithmic proxies for the state-of-the-art
// optimizers the paper compares against (Table 3). Each proxy reproduces
// the published optimization *strategy* of its tool — fixed pass pipelines,
// partition-and-resynthesize, beam search over rule schedules, guided rule
// search, phase-polynomial reduction — so the comparative shapes of Figs.
// 1, 8, 9, and 12 are reproducible without the closed-source originals.
// See DESIGN.md §3 for the substitution rationale.
package baselines

import (
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
)

// Optimizer is the common interface for every comparator and for GUOQ
// itself in the experiment harness.
type Optimizer interface {
	// Name is the tool name as used in the paper's figures.
	Name() string
	// Optimize returns an improved circuit within the wall-clock budget.
	// Implementations never return a worse circuit than the input.
	Optimize(c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, budget time.Duration, seed int64) *circuit.Circuit
}

// keepBetter guards the "never worse" contract.
func keepBetter(orig, cand *circuit.Circuit, cost opt.Cost) *circuit.Circuit {
	if cand == nil || cost(cand) > cost(orig) {
		return orig
	}
	return cand
}
