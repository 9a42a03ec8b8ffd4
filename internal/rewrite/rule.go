// Package rewrite implements the fast half of the paper: rewrite rules as
// symbolic pattern → replacement pairs over small subcircuits (Fig. 3), a
// DAG-based matcher, and the full-pass application strategy of §5.3
// ("start at a random node and replace every disjoint match").
//
// Engine applies the rules in every search: it owns a mutable circuit
// whose DAG is maintained by in-place window splices, caches per-rule
// no-match verdicts — known failures are skipped without rematching — that
// survive across calls (invalidated only inside a wire-adjacency halo of
// the gates a transformation touched), skips a pass that already found
// nothing on the same gate sequence, and exposes a transaction log
// (Mark/Rollback/Commit) so speculative candidates — a rejected GUOQ move,
// a beam candidate's children, a lookahead branch — are reverted without
// copying circuits. FullPass (FindMatches plus Apply) is the stateless
// reference implementation: it rebuilds the circuit DAG and rescans every
// anchor on each call, and returns a fresh circuit. No search uses it; the
// engine's metamorphic test and fuzz target compare the Engine against it
// over long random rule sequences, and the two produce bit-for-bit
// identical results for identical inputs. See the Engine type for the full
// invalidation contract.
//
// Every rule registered in this package is machine-verified: the test suite
// checks pattern ≡ replacement (mod global phase) at randomized angles.
package rewrite

import (
	"fmt"
	"math"

	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// PatParam is one parameter slot in a pattern gate: either a symbolic
// variable (matched against any angle and bound) or a constant (matched
// within tolerance).
type PatParam struct {
	IsVar bool
	Var   int     // variable index when IsVar
	Value float64 // constant to match otherwise
}

// V returns a symbolic parameter variable.
func V(i int) PatParam { return PatParam{IsVar: true, Var: i} }

// C returns a constant parameter that must match exactly (within tolerance).
func C(x float64) PatParam { return PatParam{Value: x} }

// PatGate is a gate in a rule pattern. Qubits are pattern-local variables
// 0..NumQubits-1; the matcher binds them injectively to circuit qubits.
type PatGate struct {
	Name   gate.Name
	Qubits []int
	Params []PatParam
}

// ParamExpr is a linear expression c₀ + Σ cᵢ·varᵢ over the pattern's bound
// parameter variables, used for replacement gate parameters (e.g. θ₁+θ₂ in
// the merge rule of Fig. 3d).
type ParamExpr struct {
	Const  float64
	Coeffs map[int]float64
}

// EC returns a constant expression.
func EC(x float64) ParamExpr { return ParamExpr{Const: x} }

// EV returns the expression equal to variable i.
func EV(i int) ParamExpr { return ParamExpr{Coeffs: map[int]float64{i: 1}} }

// ENeg returns −varᵢ.
func ENeg(i int) ParamExpr { return ParamExpr{Coeffs: map[int]float64{i: -1}} }

// ESum returns varᵢ + varⱼ.
func ESum(i, j int) ParamExpr {
	if i == j {
		return ParamExpr{Coeffs: map[int]float64{i: 2}}
	}
	return ParamExpr{Coeffs: map[int]float64{i: 1, j: 1}}
}

// Eval evaluates the expression under a variable binding, normalizing the
// result into (−π, π].
func (e ParamExpr) Eval(binding []float64) float64 {
	v := e.Const
	for i, c := range e.Coeffs {
		v += c * binding[i]
	}
	return linalg.NormAngle(v)
}

// RepGate is a gate in a rule replacement.
type RepGate struct {
	Name   gate.Name
	Qubits []int
	Params []ParamExpr
}

// Rule is a rewrite rule: a pattern subcircuit and a semantically equivalent
// replacement, both over NumQubits pattern-local qubits and NumVars symbolic
// angle variables. Rules are exact (ε = 0 transformations).
type Rule struct {
	Name        string
	NumQubits   int
	NumVars     int
	Pattern     []PatGate // in execution order
	Replacement []RepGate // in execution order

	// Matching plan, precomputed by NewRule. prevPat/nextPat give, per
	// pattern gate and qubit position, the pattern index of the previous /
	// next pattern gate on that pattern wire (-1 if none). matchOrder is a
	// BFS order over wire adjacency starting from pattern gate 0, so each
	// later gate has at least one already-matched wire neighbour.
	prevPat    [][]int
	nextPat    [][]int
	matchOrder []int

	// Per-wire pattern extents, also precomputed: wireExtent[q] counts the
	// pattern gates on pattern wire q, and haloDepth is the invalidation
	// radius derived from them — one more than the deepest wire-adjacency
	// step the matcher can take from the anchor. Both feed the Engine's
	// per-rule halo sizing (see Engine's invalidation contract).
	wireExtent []int
	haloDepth  int
}

// WireExtents returns, per pattern-local wire, how many pattern gates act
// on it — the rule's per-wire footprint, computed once at compile time.
func (r *Rule) WireExtents() []int { return r.wireExtent }

// HaloDepth is the rule's cache-invalidation radius: a match attempt
// anchored at gate a only ever inspects gates within HaloDepth wire-
// adjacency steps of a (the pattern's BFS eccentricity from the anchor,
// plus one step for the window-purity scan and candidate probes). It is
// never larger than len(Pattern)+1, the global bound it replaces, and is
// much smaller for long narrow patterns.
func (r *Rule) HaloDepth() int { return r.haloDepth }

// Delta returns the gate-count change of applying the rule (negative is a
// reduction). The GUOQ instantiation excludes size-increasing rules (§6).
func (r *Rule) Delta() int { return len(r.Replacement) - len(r.Pattern) }

// P builds a pattern gate; params then qubits.
func P(n gate.Name, params []PatParam, qubits ...int) PatGate {
	return PatGate{Name: n, Qubits: qubits, Params: params}
}

// Rep builds a replacement gate; params then qubits.
func Rep(n gate.Name, params []ParamExpr, qubits ...int) RepGate {
	return RepGate{Name: n, Qubits: qubits, Params: params}
}

// NewRule validates and constructs a rule: arities and parameter counts
// must match the gate specs, qubit variables must be in range, and the
// pattern must be connected over wire adjacency so the matcher can reach
// every pattern gate from the anchor (pattern gate 0).
func NewRule(name string, numQubits, numVars int, pattern []PatGate, replacement []RepGate) (*Rule, error) {
	if len(pattern) == 0 {
		return nil, fmt.Errorf("rewrite: rule %s: empty pattern", name)
	}
	for gi, pg := range pattern {
		spec, ok := gate.SpecOf(pg.Name)
		if !ok {
			return nil, fmt.Errorf("rewrite: rule %s: unknown gate %s", name, pg.Name)
		}
		if len(pg.Qubits) != spec.Qubits || len(pg.Params) != spec.Params {
			return nil, fmt.Errorf("rewrite: rule %s: pattern gate %d malformed", name, gi)
		}
		for _, q := range pg.Qubits {
			if q < 0 || q >= numQubits {
				return nil, fmt.Errorf("rewrite: rule %s: pattern qubit %d out of range", name, q)
			}
		}
		for _, p := range pg.Params {
			if p.IsVar && (p.Var < 0 || p.Var >= numVars) {
				return nil, fmt.Errorf("rewrite: rule %s: pattern var %d out of range", name, p.Var)
			}
		}
	}
	for gi, rg := range replacement {
		spec, ok := gate.SpecOf(rg.Name)
		if !ok {
			return nil, fmt.Errorf("rewrite: rule %s: unknown replacement gate %s", name, rg.Name)
		}
		if len(rg.Qubits) != spec.Qubits || len(rg.Params) != spec.Params {
			return nil, fmt.Errorf("rewrite: rule %s: replacement gate %d malformed", name, gi)
		}
		for _, q := range rg.Qubits {
			if q < 0 || q >= numQubits {
				return nil, fmt.Errorf("rewrite: rule %s: replacement qubit %d out of range", name, q)
			}
		}
	}
	r := &Rule{
		Name: name, NumQubits: numQubits, NumVars: numVars,
		Pattern: pattern, Replacement: replacement,
	}
	if err := r.buildPlan(); err != nil {
		return nil, err
	}
	return r, nil
}

// buildPlan precomputes the pattern wire structure and the BFS match order.
func (r *Rule) buildPlan() error {
	n := len(r.Pattern)
	r.prevPat = make([][]int, n)
	r.nextPat = make([][]int, n)
	lastOn := make([]int, r.NumQubits)
	for i := range lastOn {
		lastOn[i] = -1
	}
	for gi, pg := range r.Pattern {
		r.prevPat[gi] = make([]int, len(pg.Qubits))
		r.nextPat[gi] = make([]int, len(pg.Qubits))
		for k, q := range pg.Qubits {
			r.prevPat[gi][k] = lastOn[q]
			r.nextPat[gi][k] = -1
			if p := lastOn[q]; p >= 0 {
				for pk, pq := range r.Pattern[p].Qubits {
					if pq == q {
						r.nextPat[p][pk] = gi
					}
				}
			}
			lastOn[q] = gi
		}
	}
	// BFS from gate 0 over wire adjacency (prev/next neighbours), tracking
	// each gate's depth: the deepest gate bounds how far the matcher walks
	// from the anchor.
	visited := make([]bool, n)
	depth := make([]int, n)
	r.matchOrder = []int{0}
	visited[0] = true
	maxDepth := 0
	for head := 0; head < len(r.matchOrder); head++ {
		gi := r.matchOrder[head]
		for k := range r.Pattern[gi].Qubits {
			for _, nb := range []int{r.prevPat[gi][k], r.nextPat[gi][k]} {
				if nb >= 0 && !visited[nb] {
					visited[nb] = true
					depth[nb] = depth[gi] + 1
					if depth[nb] > maxDepth {
						maxDepth = depth[nb]
					}
					r.matchOrder = append(r.matchOrder, nb)
				}
			}
		}
	}
	if len(r.matchOrder) != n {
		return fmt.Errorf("rewrite: rule %s: pattern is not wire-connected", r.Name)
	}
	// Per-wire extents and the halo radius they imply. The extra +1 covers
	// the one-step probes beyond matched gates: failed candidates and the
	// window-purity scan, both of which only ever look at immediate wire
	// neighbours of matched gates.
	r.wireExtent = make([]int, r.NumQubits)
	for _, pg := range r.Pattern {
		for _, q := range pg.Qubits {
			r.wireExtent[q]++
		}
	}
	r.haloDepth = maxDepth + 1
	return nil
}

// OverrideCompiledMetadata replaces the rule's compiled HaloDepth and
// WireExtents with arbitrary values. It exists ONLY so analysis fixtures
// can inject an unsound declaration and prove CheckLibrary catches it;
// production code must never call it — a wrong halo silently corrupts the
// Engine's cached verdicts, which is exactly the failure the analysis
// package guards against. A nil wireExtents keeps the compiled extents.
func (r *Rule) OverrideCompiledMetadata(haloDepth int, wireExtents []int) {
	r.haloDepth = haloDepth
	if wireExtents != nil {
		r.wireExtent = wireExtents
	}
}

// MustRule is NewRule for the static rule libraries; it panics on error.
func MustRule(name string, numQubits, numVars int, pattern []PatGate, replacement []RepGate) *Rule {
	r, err := NewRule(name, numQubits, numVars, pattern, replacement)
	if err != nil {
		panic(err)
	}
	return r
}

// PatternCircuitAt instantiates the rule's pattern as a concrete circuit
// with the given variable binding, for verification.
func (r *Rule) PatternCircuitAt(binding []float64) []gate.Gate {
	out := make([]gate.Gate, 0, len(r.Pattern))
	for _, pg := range r.Pattern {
		ps := make([]float64, len(pg.Params))
		for i, p := range pg.Params {
			if p.IsVar {
				ps[i] = binding[p.Var]
			} else {
				ps[i] = p.Value
			}
		}
		qs := make([]int, len(pg.Qubits))
		copy(qs, pg.Qubits)
		out = append(out, gate.New(pg.Name, qs, ps))
	}
	return out
}

// ReplacementCircuitAt instantiates the rule's replacement under a binding
// as fresh gates, which the caller may keep and modify. Like Gate.Clone,
// it allocates Params only when the gate has parameters.
func (r *Rule) ReplacementCircuitAt(binding []float64) []gate.Gate {
	out := make([]gate.Gate, 0, len(r.Replacement))
	for _, rg := range r.Replacement {
		var ps []float64
		if len(rg.Params) > 0 {
			ps = make([]float64, len(rg.Params))
		}
		for i, e := range rg.Params {
			ps[i] = e.Eval(binding)
		}
		qs := make([]int, len(rg.Qubits))
		copy(qs, rg.Qubits)
		out = append(out, gate.New(rg.Name, qs, ps))
	}
	return out
}

// Verify checks pattern ≡ replacement (mod global phase) at the given
// binding, returning the Hilbert–Schmidt distance.
func (r *Rule) Verify(binding []float64) float64 {
	u := linalg.Identity(1 << r.NumQubits)
	for _, g := range r.PatternCircuitAt(binding) {
		linalg.ApplyGateLeft(gate.Matrix(g), g.Qubits, r.NumQubits, u)
	}
	v := linalg.Identity(1 << r.NumQubits)
	for _, g := range r.ReplacementCircuitAt(binding) {
		linalg.ApplyGateLeft(gate.Matrix(g), g.Qubits, r.NumQubits, v)
	}
	return linalg.HSDistance(u, v)
}

const paramTol = 1e-9

// matchParam checks a pattern parameter against a concrete angle, extending
// the binding. bound[i] reports whether variable i is already bound.
//
//guoq:hotpath
func matchParam(p PatParam, angle float64, binding []float64, bound []bool) bool {
	if !p.IsVar {
		return math.Abs(linalg.NormAngle(angle-p.Value)) <= paramTol
	}
	if bound[p.Var] {
		return math.Abs(linalg.NormAngle(angle-binding[p.Var])) <= paramTol
	}
	binding[p.Var] = angle
	bound[p.Var] = true
	return true
}
