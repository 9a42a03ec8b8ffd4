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

// EngineApplier is the incremental path of a Transformation: an
// application against a persistent rewrite.Engine, mutating its circuit in
// place instead of producing a fresh copy. Every search threads one Engine
// through its iterations and uses this path whenever a transformation
// supports it: GUOQ commits on acceptance and rolls back on rejection, and
// Beam snapshots each application and rolls it back. Implementations must
// leave the engine untouched when they report ok = false and must route
// every mutation through the engine (so its DAG and rule-match caches stay
// sound). Apply must return what ApplyEngine leaves in the engine, from
// the same rng draws; the built-in fast transformations guarantee this by
// running ApplyEngine on a fresh engine as their Apply.
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

// applyFlat is the whole-circuit application path: the async worker's,
// on its snapshot, and applyEngine's for a transformation without an
// engine method. It prefers ApplyContext when there is a context, so a
// slow call stops when the search's context ends; a nil ctx applies t
// uncancellably.
func applyFlat(ctx context.Context, t Transformation, c *circuit.Circuit, allowed float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	if ca, ok := t.(ContextApplier); ok && ctx != nil {
		return ca.ApplyContext(ctx, c, allowed, rng)
	}
	return t.Apply(c, allowed, rng)
}

// applyEngine is the synchronous application path of every search: t
// applied to the engine's circuit, in place when t supports it and as a
// whole-circuit transaction otherwise, through the context-aware method
// when there is a context. On ok the engine holds the candidate, and the
// caller must Commit or Rollback.
func applyEngine(ctx context.Context, eng *rewrite.Engine, t Transformation, allowed float64, rng *rand.Rand) (float64, bool) {
	if ea, ok := t.(EngineContextApplier); ok && ctx != nil {
		return ea.ApplyEngineContext(ctx, eng, allowed, rng)
	}
	if ea, ok := t.(EngineApplier); ok {
		return ea.ApplyEngine(eng, allowed, rng)
	}
	out, eps, ok := applyFlat(ctx, t, eng.Circuit(), allowed, rng)
	if !ok {
		return 0, false
	}
	// Clone defensively: SetCircuit keeps the gates it splices in, and
	// a caller-supplied transformation may hand back shared state.
	eng.SetCircuit(out.Clone())
	return eps, true
}

// applyFresh is the whole-circuit Apply of a transformation implemented
// on the engine: ea applied to a fresh engine over c. The engine is
// dropped, so its circuit is the fresh output Apply promises.
func applyFresh(ea EngineApplier, c *circuit.Circuit, allowed float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	e := rewrite.NewEngine(c)
	eps, ok := ea.ApplyEngine(e, allowed, rng)
	if !ok {
		return c, 0, false
	}
	return e.Circuit(), eps, true
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

func (t *RuleTransformation) Apply(c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	return applyFresh(t, c, allowedEps, rng)
}

// ApplyEngine implements EngineApplier: one full pass of the rule from a
// random anchor, matched through the engine's candidate index and applied
// as in-place splices. The start anchor is drawn before the engine may
// skip the pass, so a skip leaves the rng stream as a scan would.
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

func (t *CleanupTransformation) Apply(c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	return applyFresh(t, c, allowedEps, rng)
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

func (t *FuseTransformation) Apply(c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	return applyFresh(t, c, allowedEps, rng)
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

func (t *PhaseFoldTransformation) Apply(c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	return applyFresh(t, c, allowedEps, rng)
}

// ApplyEngine implements EngineApplier.
func (t *PhaseFoldTransformation) ApplyEngine(e *rewrite.Engine, _ float64, _ *rand.Rand) (float64, bool) {
	return 0, e.ApplyPass(PhaseFoldPass, t.GateSet) > 0
}

// ---------------------------------------------------------------------------

// ResynthTransformation is the τ_ε for resynthesis (§4.1) with a unitary
// synthesizer, the built-in kind. It runs as a CircuitResynthTransformation
// over UnitarySynth(Synth): it grows a random convex subcircuit of up to
// MaxQubits qubits (§5.3) and synthesizes its unitary within the allowed
// tolerance.
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

// circuitResynth is t as the transformation it runs as, built on each call
// from t.Synth, which a caller may replace on a copy of t.
func (t *ResynthTransformation) circuitResynth() *CircuitResynthTransformation {
	return &CircuitResynthTransformation{Synth: UnitarySynth(t.Synth), MaxQubits: t.MaxQubits, DeclaredEps: t.DeclaredEps}
}

func (t *ResynthTransformation) Apply(c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	return t.circuitResynth().Apply(c, allowedEps, rng)
}

// ApplyContext implements ContextApplier: cancelling ctx aborts the
// in-flight synthesis call.
func (t *ResynthTransformation) ApplyContext(ctx context.Context, c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	return t.circuitResynth().ApplyContext(ctx, c, allowedEps, rng)
}

// ApplyEngine implements EngineApplier.
func (t *ResynthTransformation) ApplyEngine(e *rewrite.Engine, allowedEps float64, rng *rand.Rand) (float64, bool) {
	return t.circuitResynth().ApplyEngine(e, allowedEps, rng)
}

// ApplyEngineContext implements EngineContextApplier.
func (t *ResynthTransformation) ApplyEngineContext(ctx context.Context, e *rewrite.Engine, allowedEps float64, rng *rand.Rand) (float64, bool) {
	return t.circuitResynth().ApplyEngineContext(ctx, e, allowedEps, rng)
}

// ---------------------------------------------------------------------------

// CircuitSynthesizer is the circuit-level slow extension point behind the
// public API's Synthesizer interface, and the one every resynthesis runs
// through: given an extracted subcircuit and an error allowance, propose a
// replacement and report the ε it consumed. The framework treats the
// report as a claim, not a fact — see Resynthesize for the check that
// makes a user-supplied synthesizer unable to corrupt the Thm 4.2
// accounting.
type CircuitSynthesizer interface {
	// Name identifies the synthesizer in logs.
	Name() string
	// Synthesize proposes a replacement for sub within eps Hilbert–Schmidt
	// distance, reporting the error it believes it consumed. Returning an
	// error (synth.ErrNoSolution for "no proposal") keeps the original.
	Synthesize(ctx context.Context, sub *circuit.Circuit, eps float64) (replacement *circuit.Circuit, consumed float64, err error)
}

// UnitarySynth adapts a unitary synthesizer to a CircuitSynthesizer: it
// synthesizes the subcircuit's unitary with the subcircuit's two-qubit
// count as the ceiling (synth.SynthesizeBounded) and claims no error, so
// Resynthesize charges the measured distance. A synthesizer that takes the
// ceiling, like the numeric one, never proposes more two-qubit gates than
// the block holds, a move the loop would all but never accept, and gives
// up as soon as no structure under it fits. Results with as many two-qubit
// gates stay in: the loop accepts them when they are shorter. Other
// synthesizers are called without the ceiling.
func UnitarySynth(s synth.Synthesizer) CircuitSynthesizer { return unitarySynth{s} }

type unitarySynth struct{ s synth.Synthesizer }

func (u unitarySynth) Name() string { return u.s.Name() }

func (u unitarySynth) Synthesize(ctx context.Context, sub *circuit.Circuit, eps float64) (*circuit.Circuit, float64, error) {
	out, err := synth.SynthesizeBounded(ctx, u.s, sub.Unitary(), sub.NumQubits, eps, sub.TwoQubitCount())
	return out, 0, err
}

// Resynthesize is the one check of every resynthesis: it asks syn for a
// replacement of sub within eps and returns it with the error to charge.
// The budget accounting never trusts the synthesizer. The replacement must
// keep sub's qubit count and, when gs is set, be native to it; the
// synthesizer's claim and the Hilbert–Schmidt distance between the two
// unitaries, measured here, must both be within eps (an over-reporting
// synthesizer is rejected, not clamped, and a NaN fails both). The charge
// is the larger of the two, so an under-reporting synthesizer cannot
// smuggle error past the budget.
func Resynthesize(ctx context.Context, syn CircuitSynthesizer, sub *circuit.Circuit, eps float64, gs *gateset.GateSet) (*circuit.Circuit, float64, bool) {
	replacement, claimed, err := syn.Synthesize(ctx, sub, eps)
	if err != nil || replacement == nil || replacement.NumQubits != sub.NumQubits {
		return nil, 0, false
	}
	if gs != nil && !gs.IsNative(replacement) {
		return nil, 0, false
	}
	if !(claimed >= 0 && claimed <= eps) {
		return nil, 0, false
	}
	actual := linalg.HSDistance(sub.Unitary(), replacement.Unitary())
	if !(actual <= eps) {
		return nil, 0, false
	}
	return replacement, max(actual, claimed), true
}

// CircuitResynthTransformation wraps a CircuitSynthesizer as a τ_ε: sample
// a random convex region, hand the extracted subcircuit to the synthesizer
// through Resynthesize, and splice the replacement back.
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

// propose samples a region and resynthesizes it, short of the final
// splice. ctx cancels the synthesis call itself (for synthesizers that
// support it), so a cancelled search stops mid-call instead of draining
// the deadline.
func (t *CircuitResynthTransformation) propose(ctx context.Context, c *circuit.Circuit, allowedEps float64, rng *rand.Rand) (*circuit.Region, *circuit.Circuit, float64, bool) {
	// Sample the region width: 2-qubit regions synthesize in milliseconds
	// (0..3 CX by the KAK bound), 3-qubit ones are the slow deep calls, so
	// the mix keeps resynthesis throughput high at compressed budgets while
	// preserving the paper's ≤3-qubit limit.
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
	eps := t.DeclaredEps
	if allowedEps < eps {
		eps = allowedEps
	}
	if eps < 0 {
		return nil, nil, 0, false
	}
	replacement, charged, ok := Resynthesize(ctx, t.Synth, region.Extract(c), eps, t.GateSet)
	if !ok {
		return nil, nil, 0, false
	}
	return region, replacement, charged, true
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
