// Package opt implements the paper's core contribution: the unified
// framework of circuit transformations (§4) and the GUOQ stochastic
// optimization algorithm (§5, Alg. 1), plus the ablation variants used in
// Q2/Q3 (rewrite-only, resynth-only, sequential orderings, beam search).
package opt

import (
	"context"
	"math/rand"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/phasepoly"
	"github.com/guoq-dev/guoq/internal/rewrite"
	"github.com/guoq-dev/guoq/internal/synth"
)

// Transformation is the τ_ε abstraction of Def. 4.1: a closed-box function
// from circuits to ε-equivalent circuits. Epsilon is the declared error
// class used for budget admission (Alg. 1 line 6); Apply additionally
// reports the error actually incurred, which is what the loop accumulates
// (the achieved Δ of each step is what Thm 4.2 sums).
type Transformation interface {
	// Name identifies the transformation in logs.
	Name() string
	// Epsilon is the declared worst-case error of one application.
	Epsilon() float64
	// Slow reports whether this is a "slow" (resynthesis-class)
	// transformation for the 1.5% / 98.5% weighting of §5.3.
	Slow() bool
	// Apply attempts one application to a randomly chosen location,
	// returning the transformed circuit, the error incurred, and whether
	// anything was attempted. allowedEps caps the incurred error. The
	// returned circuit must be fresh (or the unmodified input when
	// ok = false): the search loop may adopt it into a mutable engine.
	Apply(c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (out *circuit.Circuit, eps float64, ok bool)
}

// EngineApplier is the incremental fast path of a Transformation: an
// application against a persistent rewrite.Engine, mutating its circuit in
// place instead of producing a fresh copy. The GUOQ loop threads one
// Engine per worker through its iterations and uses this path whenever a
// transformation supports it — committing on acceptance, rolling back on
// rejection. Implementations must leave the engine untouched when they
// report ok = false, must route every mutation through the engine (so its
// DAG and rule-match caches stay sound), and must consume exactly the same
// rng stream as Apply so engine-backed runs stay bit-for-bit reproducible.
type EngineApplier interface {
	ApplyEngine(e *rewrite.Engine, allowedEps float64, rng *rand.Rand) (eps float64, ok bool)
}

// ContextApplier is the cancellation-aware path of a Transformation: an
// application that observes ctx and returns early (ok = false) when it is
// cancelled, instead of running to its own internal deadline. The search
// loop uses this path for slow transformations so a cancelled run stops
// within one optimizer sweep rather than draining a full synthesis
// deadline. Implementations must consume exactly the same rng stream as
// Apply — context checks may not draw randomness — so runs that are never
// cancelled stay bit-identical.
type ContextApplier interface {
	ApplyContext(ctx context.Context, c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (out *circuit.Circuit, eps float64, ok bool)
}

// EngineContextApplier combines the engine fast path with cancellation.
type EngineContextApplier interface {
	ApplyEngineContext(ctx context.Context, e *rewrite.Engine, allowedEps float64, rng *rand.Rand) (eps float64, ok bool)
}

// ---------------------------------------------------------------------------

// RuleTransformation wraps one rewrite rule as a τ_0: a full pass replacing
// every disjoint match, starting from a random anchor (§5.3).
type RuleTransformation struct {
	Rule *rewrite.Rule
}

func (t *RuleTransformation) Name() string     { return "rule:" + t.Rule.Name }
func (t *RuleTransformation) Epsilon() float64 { return 0 }
func (t *RuleTransformation) Slow() bool       { return false }

func (t *RuleTransformation) Apply(c *circuit.Circuit, _ float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	if c.Len() == 0 {
		return c, 0, false
	}
	out, n := rewrite.FullPass(c, t.Rule, rng.Intn(c.Len()))
	if n == 0 {
		return c, 0, false
	}
	return out, 0, true
}

// ApplyEngine implements EngineApplier: the same full pass, but matched
// through the engine's per-rule cache and applied as in-place splices. The
// start anchor is drawn before the engine may skip the pass, so a skip
// leaves the rng stream as a scan would.
func (t *RuleTransformation) ApplyEngine(e *rewrite.Engine, _ float64, rng *rand.Rand) (float64, bool) {
	c := e.Circuit()
	if c.Len() == 0 {
		return 0, false
	}
	n := e.FullPass(t.Rule, rng.Intn(c.Len()))
	return 0, n > 0
}

// The τ_0 whole-circuit passes as the engine runs them: Engine.ApplyPass
// adopts a pass's output as one splice when it changed something, and
// skips a pass that changed nothing at the engine's current version.
var (
	CleanupPass   = &rewrite.Pass{Name: "cleanup", Run: rewrite.CleanupChangedFor}
	Fuse1QPass    = &rewrite.Pass{Name: "fuse1q", Run: rewrite.Fuse1QChanged}
	PhaseFoldPass = &rewrite.Pass{Name: "phasefold", Run: phasepoly.FoldChangedFor}
)

// CleanupTransformation wraps the normalization pass as a τ_0. GateSet is
// the resolved target, so the pass emits natively even for ad-hoc sets
// that are not name-addressable.
type CleanupTransformation struct {
	GateSet *gateset.GateSet
}

func (t *CleanupTransformation) Name() string     { return "cleanup" }
func (t *CleanupTransformation) Epsilon() float64 { return 0 }
func (t *CleanupTransformation) Slow() bool       { return false }

func (t *CleanupTransformation) Apply(c *circuit.Circuit, _ float64, _ *rand.Rand) (*circuit.Circuit, float64, bool) {
	out, changed := rewrite.CleanupChangedFor(c, t.GateSet)
	if changed == 0 {
		return c, 0, false
	}
	return out, 0, true
}

// ApplyEngine implements EngineApplier: the pass through Engine.ApplyPass,
// which splices in the span it changed, only when it changed something.
func (t *CleanupTransformation) ApplyEngine(e *rewrite.Engine, _ float64, _ *rand.Rand) (float64, bool) {
	return 0, e.ApplyPass(CleanupPass, t.GateSet) > 0
}

// FuseTransformation wraps single-qubit fusion as a τ_0 (continuous sets).
type FuseTransformation struct {
	GateSet *gateset.GateSet
}

func (t *FuseTransformation) Name() string     { return "fuse1q" }
func (t *FuseTransformation) Epsilon() float64 { return 0 }
func (t *FuseTransformation) Slow() bool       { return false }

func (t *FuseTransformation) Apply(c *circuit.Circuit, _ float64, _ *rand.Rand) (*circuit.Circuit, float64, bool) {
	out, changed := rewrite.Fuse1QChanged(c, t.GateSet)
	if changed == 0 {
		return c, 0, false
	}
	return out, 0, true
}

// ApplyEngine implements EngineApplier.
func (t *FuseTransformation) ApplyEngine(e *rewrite.Engine, _ float64, _ *rand.Rand) (float64, bool) {
	return 0, e.ApplyPass(Fuse1QPass, t.GateSet) > 0
}

// PhaseFoldTransformation wraps global phase folding as a τ_0. It is cheap,
// exact, and particularly potent on Clifford+T circuits.
type PhaseFoldTransformation struct {
	// GateSet is the resolved target whose diagonal vocabulary the fold
	// emits in.
	GateSet *gateset.GateSet
}

func (t *PhaseFoldTransformation) Name() string     { return "phasefold" }
func (t *PhaseFoldTransformation) Epsilon() float64 { return 0 }
func (t *PhaseFoldTransformation) Slow() bool       { return false }

func (t *PhaseFoldTransformation) Apply(c *circuit.Circuit, _ float64, _ *rand.Rand) (*circuit.Circuit, float64, bool) {
	out, changed := phasepoly.FoldChangedFor(c, t.GateSet)
	if changed == 0 {
		return c, 0, false
	}
	return out, 0, true
}

// ApplyEngine implements EngineApplier.
func (t *PhaseFoldTransformation) ApplyEngine(e *rewrite.Engine, _ float64, _ *rand.Rand) (float64, bool) {
	return 0, e.ApplyPass(PhaseFoldPass, t.GateSet) > 0
}

// ---------------------------------------------------------------------------

// ResynthTransformation is the τ_ε for resynthesis (§4.1): grow a random
// convex subcircuit up to MaxQubits qubits (§5.3), compute its unitary, and
// invoke unitary synthesis with the allowed tolerance and the subcircuit's
// two-qubit count as the ceiling (synth.SynthesizeBounded). A synthesizer
// that takes the ceiling, like the numeric one, never proposes more
// two-qubit gates than the block holds, a move the loop would all but
// never accept, and gives up as soon as no structure under it fits.
// Results with as many two-qubit gates stay in: the loop accepts them
// when they are shorter. Other synthesizers are called as before.
type ResynthTransformation struct {
	Synth synth.Synthesizer
	// MaxQubits limits subcircuit width (3 in the paper's instantiation).
	MaxQubits int
	// DeclaredEps is the per-application error class; the admission check
	// of Alg. 1 line 6 uses this value.
	DeclaredEps float64
}

func (t *ResynthTransformation) Name() string     { return "resynth:" + t.Synth.Name() }
func (t *ResynthTransformation) Epsilon() float64 { return t.DeclaredEps }
func (t *ResynthTransformation) Slow() bool       { return true }

// propose runs the whole resynthesis pipeline short of the final splice:
// sample a region, synthesize its unitary, and verify the achieved error.
// ctx cancels the synthesis call itself (for synthesizers that support it),
// so a cancelled search stops mid-call instead of draining the deadline.
func (t *ResynthTransformation) propose(ctx context.Context, c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Region, *circuit.Circuit, float64, bool) {
	// Sample the region width: 2-qubit regions synthesize in milliseconds
	// (0..3 CX by the KAK bound), 3-qubit ones are the slow deep calls, so
	// the mix keeps resynthesis throughput high at compressed budgets while
	// preserving the paper's ≤3-qubit limit.
	width := t.MaxQubits
	if width >= 3 && rng.Intn(2) == 0 {
		width = 2
	}
	region := circuit.RandomRegion(c, width, 0, rng)
	if region == nil || len(region.Indices) < 2 {
		return nil, nil, 0, false
	}
	sub := region.Extract(c)
	eps := t.DeclaredEps
	if allowedEps < eps {
		eps = allowedEps
	}
	if eps < 0 {
		return nil, nil, 0, false
	}
	target := sub.Unitary()
	replacement, err := synth.SynthesizeBounded(ctx, t.Synth, target, sub.NumQubits, eps, sub.TwoQubitCount())
	if err != nil {
		return nil, nil, 0, false
	}
	// Account the error actually incurred, not the declared class. Only a
	// finite error within the allowance passes: NaN fails every comparison.
	actual := linalg.HSDistance(target, replacement.Unitary())
	if !(actual <= eps) {
		return nil, nil, 0, false
	}
	return region, replacement, actual, true
}

func (t *ResynthTransformation) Apply(c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	return t.ApplyContext(context.Background(), c, allowedEps, rng)
}

// ApplyContext implements ContextApplier: cancelling ctx aborts the
// in-flight synthesis call.
func (t *ResynthTransformation) ApplyContext(ctx context.Context, c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	region, replacement, actual, ok := t.propose(ctx, c, allowedEps, rng)
	if !ok {
		return c, 0, false
	}
	return region.Replace(c, replacement), actual, true
}

// ApplyEngine implements EngineApplier: the region replacement goes through
// the engine, so the splice is transaction-logged and its halo invalidated
// like any rewrite — resynthesis moves keep the match caches sound.
func (t *ResynthTransformation) ApplyEngine(e *rewrite.Engine, allowedEps float64, rng *rand.Rand) (float64, bool) {
	return t.ApplyEngineContext(context.Background(), e, allowedEps, rng)
}

// ApplyEngineContext implements EngineContextApplier.
func (t *ResynthTransformation) ApplyEngineContext(ctx context.Context, e *rewrite.Engine, allowedEps float64, rng *rand.Rand) (float64, bool) {
	region, replacement, actual, ok := t.propose(ctx, e.Circuit(), allowedEps, rng)
	if !ok {
		return 0, false
	}
	e.ReplaceRegion(region, replacement)
	return actual, true
}

// ---------------------------------------------------------------------------

// CircuitSynthesizer is the circuit-level slow extension point behind the
// public API's Synthesizer interface: given an extracted subcircuit and an
// error allowance, propose a replacement and report the ε it consumed. The
// framework treats the report as a claim, not a fact — see
// CircuitResynthTransformation for the verification that makes a
// user-supplied synthesizer unable to corrupt the Thm 4.2 accounting.
type CircuitSynthesizer interface {
	// Name identifies the synthesizer in logs.
	Name() string
	// Synthesize proposes a replacement for sub within eps Hilbert–Schmidt
	// distance, reporting the error it believes it consumed. Returning an
	// error (synth.ErrNoSolution for "no proposal") keeps the original.
	Synthesize(ctx context.Context, sub *circuit.Circuit, eps float64) (replacement *circuit.Circuit, consumed float64, err error)
}

// CircuitResynthTransformation wraps a CircuitSynthesizer as a τ_ε exactly
// like built-in resynthesis: sample a random convex region, hand the
// extracted subcircuit to the synthesizer, splice the replacement back.
//
// The budget accounting never trusts the synthesizer: the achieved error is
// re-measured as the Hilbert–Schmidt distance between the region's unitary
// and the replacement's, and the transformation is rejected outright when
// either the measured error or the synthesizer's own claim exceeds the
// allowance (an over-reporting synthesizer cannot be admitted, and an
// under-reporting one cannot smuggle error past the budget — the charge is
// the maximum of measurement and claim). Replacements must also preserve
// qubit count and, when GateSet is set, stay native to it.
type CircuitResynthTransformation struct {
	Synth CircuitSynthesizer
	// MaxQubits limits subcircuit width (3, the paper's instantiation and
	// the practical bound for the unitary-distance verification).
	MaxQubits int
	// DeclaredEps is the per-application error class used for the
	// admission check of Alg. 1 line 6.
	DeclaredEps float64
	// GateSet, when set, rejects replacements with non-native gates, so a
	// careless synthesizer cannot push the search out of the target set.
	GateSet *gateset.GateSet
}

func (t *CircuitResynthTransformation) Name() string     { return "synth:" + t.Synth.Name() }
func (t *CircuitResynthTransformation) Epsilon() float64 { return t.DeclaredEps }
func (t *CircuitResynthTransformation) Slow() bool       { return true }

func (t *CircuitResynthTransformation) propose(ctx context.Context, c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Region, *circuit.Circuit, float64, bool) {
	width := t.MaxQubits
	if width <= 0 {
		width = 3
	}
	if width >= 3 && rng.Intn(2) == 0 {
		width = 2
	}
	region := circuit.RandomRegion(c, width, 0, rng)
	if region == nil || len(region.Indices) < 2 {
		return nil, nil, 0, false
	}
	sub := region.Extract(c)
	eps := t.DeclaredEps
	if allowedEps < eps {
		eps = allowedEps
	}
	if eps < 0 {
		return nil, nil, 0, false
	}
	replacement, claimed, err := t.Synth.Synthesize(ctx, sub, eps)
	if err != nil || replacement == nil {
		return nil, nil, 0, false
	}
	if replacement.NumQubits != sub.NumQubits {
		return nil, nil, 0, false
	}
	if t.GateSet != nil && !t.GateSet.IsNative(replacement) {
		return nil, nil, 0, false
	}
	// Budget admission: the claim must fit the allowance (over-reporting is
	// rejected, not clamped), and so must the independently measured error.
	// Both checks pass only a finite value within the allowance, so a NaN
	// claim or a replacement with a NaN angle is rejected.
	if !(claimed >= 0 && claimed <= eps) {
		return nil, nil, 0, false
	}
	actual := linalg.HSDistance(sub.Unitary(), replacement.Unitary())
	if !(actual <= eps) {
		return nil, nil, 0, false
	}
	// Charge the worse of measurement and claim: sound under Thm 4.2 either
	// way, and honest synthesizers (claim == achieved bound ≥ actual) keep
	// their own accounting.
	if claimed > actual {
		actual = claimed
	}
	return region, replacement, actual, true
}

func (t *CircuitResynthTransformation) Apply(c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	return t.ApplyContext(context.Background(), c, allowedEps, rng)
}

// ApplyContext implements ContextApplier.
func (t *CircuitResynthTransformation) ApplyContext(ctx context.Context, c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	region, replacement, actual, ok := t.propose(ctx, c, allowedEps, rng)
	if !ok {
		return c, 0, false
	}
	return region.Replace(c, replacement), actual, true
}

// ApplyEngine implements EngineApplier.
func (t *CircuitResynthTransformation) ApplyEngine(e *rewrite.Engine, allowedEps float64, rng *rand.Rand) (float64, bool) {
	return t.ApplyEngineContext(context.Background(), e, allowedEps, rng)
}

// ApplyEngineContext implements EngineContextApplier.
func (t *CircuitResynthTransformation) ApplyEngineContext(ctx context.Context, e *rewrite.Engine, allowedEps float64, rng *rand.Rand) (float64, bool) {
	region, replacement, actual, ok := t.propose(ctx, e.Circuit(), allowedEps, rng)
	if !ok {
		return 0, false
	}
	e.ReplaceRegion(region, replacement)
	return actual, true
}
