package guoq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/rewrite"
	"github.com/guoq-dev/guoq/internal/synth"
)

// ErrNoSolution is what a Synthesizer returns when it has no proposal for
// a subcircuit within the requested tolerance; the search keeps the
// original subcircuit and moves on.
var ErrNoSolution = synth.ErrNoSolution

// Transformation is one entry of the search's portfolio — the paper's τ_ε
// abstraction (Def. 4.1) as a public extension point. GUOQ is
// transformation-agnostic: fast rewrite rules and slow resynthesis are
// just entries the randomized search samples from, and callers add their
// own through Options.Transformations (per run) or RegisterTransformation
// (process-wide).
//
// The interface is closed: values are built with NewRule (fast, exact,
// ε = 0) or UseSynthesizer (slow, consumes ε from the run's budget). This
// keeps the search-loop contract — deterministic rng consumption, sound ε
// accounting, engine-safe mutation — inside the library, where it is
// enforced rather than documented.
type Transformation interface {
	// Name identifies the transformation in logs and events.
	Name() string
	// compile lowers the transformation for a concrete target set and
	// global budget into one or more search transformations; unexported to
	// seal the interface.
	compile(gs *gateset.GateSet, epsF float64) ([]opt.Transformation, error)
}

// ---------------------------------------------------------------------------
// Symbolic angle parameters for rule patterns.

// Rule parameters are plain float64s, so symbolic angle variables are
// smuggled through NaN payloads: Angle(i) returns a quiet NaN encoding
// variable i, recognized by NewRule and invalid anywhere else (feeding one
// to a simulator or optimizer yields NaN, loudly).
const (
	angleMagic = uint64(0x7FF86A0E) << 32 // quiet NaN + marker in the payload

	angleOpVar = 0
	angleOpNeg = 1
	angleOpSum = 2

	angleVarMax = 1 << 14
)

func encodeAngle(op, i, j int) float64 {
	if i < 0 || i >= angleVarMax || j < 0 || j >= angleVarMax {
		panic(fmt.Sprintf("guoq: angle variable index out of range [0, %d)", angleVarMax))
	}
	return math.Float64frombits(angleMagic | uint64(op)<<28 | uint64(j)<<14 | uint64(i))
}

func decodeAngle(v float64) (op, i, j int, ok bool) {
	bits := math.Float64bits(v)
	if bits&0xFFFFFFFF_00000000 != angleMagic {
		return 0, 0, 0, false
	}
	low := uint32(bits)
	return int(low >> 28), int(low & (angleVarMax - 1)), int(low >> 14 & (angleVarMax - 1)), true
}

// Angle returns the symbolic angle variable θᵢ for use in NewRule patterns
// and replacements: in a pattern it matches any angle and binds it; in a
// replacement it evaluates to the bound value.
func Angle(i int) float64 { return encodeAngle(angleOpVar, i, 0) }

// AngleNeg returns −θᵢ, valid in rule replacements only.
func AngleNeg(i int) float64 { return encodeAngle(angleOpNeg, i, 0) }

// AngleSum returns θᵢ + θⱼ, valid in rule replacements only (the merge
// rule Rz(θ₀)·Rz(θ₁) → Rz(θ₀+θ₁) is AngleSum(0, 1)).
func AngleSum(i, j int) float64 { return encodeAngle(angleOpSum, i, j) }

// ---------------------------------------------------------------------------
// Rule: the fast (exact) extension point.

// Rule is a fast, exact rewrite transformation: a pattern subcircuit and
// an equivalent replacement, both expressed with the ordinary gate
// constructors over pattern-local qubits (0..numQubits-1) and symbolic
// angles (Angle). Build one with NewRule, which machine-verifies the
// equivalence before accepting it.
type Rule struct {
	name     string
	compiled *rewrite.Rule
}

// NewRule builds and verifies a rewrite rule. Pattern and replacement are
// gate sequences in execution order over pattern-local qubit indices;
// angle parameters may be concrete values (matched within tolerance) or
// symbolic variables from Angle (replacements may also use AngleNeg and
// AngleSum). Example — "cancel CX conjugation of a Z rotation":
//
//	rule, err := guoq.NewRule("cx-rz-cx", 2,
//		[]guoq.Gate{guoq.CX(0, 1), guoq.Rz(guoq.Angle(0), 0), guoq.CX(0, 1)},
//		[]guoq.Gate{guoq.Rz(guoq.Angle(0), 0)},
//	)
//
// The rule is rejected unless pattern ≡ replacement (up to global phase)
// at randomized angle bindings, so a registered rule can never corrupt a
// run: user rules carry the same verified-exactness guarantee as the
// built-in libraries.
func NewRule(name string, numQubits int, pattern, replacement []Gate) (*Rule, error) {
	if name == "" {
		return nil, fmt.Errorf("guoq: rule needs a name")
	}
	numVars := 0
	note := func(i int) {
		if i+1 > numVars {
			numVars = i + 1
		}
	}
	pat := make([]rewrite.PatGate, len(pattern))
	for gi, g := range pattern {
		params := make([]rewrite.PatParam, len(g.Params))
		for pi, v := range g.Params {
			if op, i, _, ok := decodeAngle(v); ok {
				if op != angleOpVar {
					return nil, fmt.Errorf("guoq: rule %s: pattern gate %d: only Angle(i) is valid in patterns", name, gi)
				}
				params[pi] = rewrite.V(i)
				note(i)
			} else if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("guoq: rule %s: pattern gate %d has a non-finite angle", name, gi)
			} else {
				params[pi] = rewrite.C(v)
			}
		}
		pat[gi] = rewrite.PatGate{Name: g.Name, Qubits: append([]int(nil), g.Qubits...), Params: params}
	}
	rep := make([]rewrite.RepGate, len(replacement))
	for gi, g := range replacement {
		params := make([]rewrite.ParamExpr, len(g.Params))
		for pi, v := range g.Params {
			if op, i, j, ok := decodeAngle(v); ok {
				switch op {
				case angleOpVar:
					params[pi] = rewrite.EV(i)
					note(i)
				case angleOpNeg:
					params[pi] = rewrite.ENeg(i)
					note(i)
				case angleOpSum:
					params[pi] = rewrite.ESum(i, j)
					note(i)
					note(j)
				default:
					return nil, fmt.Errorf("guoq: rule %s: replacement gate %d has an unknown angle expression", name, gi)
				}
			} else if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("guoq: rule %s: replacement gate %d has a non-finite angle", name, gi)
			} else {
				params[pi] = rewrite.EC(v)
			}
		}
		rep[gi] = rewrite.RepGate{Name: g.Name, Qubits: append([]int(nil), g.Qubits...), Params: params}
	}
	r, err := rewrite.NewRule(name, numQubits, numVars, pat, rep)
	if err != nil {
		return nil, err
	}
	// Machine-verify pattern ≡ replacement (mod global phase) at randomized
	// bindings — the same property the test suite pins for the built-in
	// libraries, enforced here at construction for user rules.
	rng := rand.New(rand.NewSource(0x5eed1e))
	trials := 4
	if numVars == 0 {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		binding := make([]float64, numVars)
		for i := range binding {
			binding[i] = rng.Float64()*2*math.Pi - math.Pi
		}
		if d := r.Verify(binding); !(d <= 1e-9) {
			return nil, fmt.Errorf("guoq: rule %s is not an equivalence: pattern and replacement differ by %g at binding %v", name, d, binding)
		}
	}
	return &Rule{name: name, compiled: r}, nil
}

// MustNewRule is NewRule for statically known rules; it panics on error.
func MustNewRule(name string, numQubits int, pattern, replacement []Gate) *Rule {
	r, err := NewRule(name, numQubits, pattern, replacement)
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements Transformation.
func (r *Rule) Name() string { return "rule:" + r.name }

func (r *Rule) compile(gs *gateset.GateSet, _ float64) ([]opt.Transformation, error) {
	// The pattern can only match native circuits, but the replacement is
	// spliced in verbatim — it must not push the search out of the target.
	for _, g := range r.compiled.Replacement {
		if !gs.Contains(g.Name) {
			return nil, fmt.Errorf("guoq: rule %s: replacement gate %s is not native to gate set %s", r.name, g.Name, gs.Name)
		}
	}
	return []opt.Transformation{&opt.RuleTransformation{Rule: r.compiled}}, nil
}

// ---------------------------------------------------------------------------
// Synthesizer: the slow (ε-consuming) extension point.

// Synthesizer is the slow transformation class (§4.1) as a public
// extension point: a numerical or search-based procedure that proposes a
// replacement for a small subcircuit, consuming approximation budget. Wrap
// one with UseSynthesizer to add it to a run's portfolio — external
// synthesis engines (BQSKit/QFAST-style numerics, Synthetiq-style finite
// search) plug in here.
//
// Synthesize receives an extracted subcircuit (2–3 qubits) and the error
// allowance for this application; it returns a replacement circuit, the ε
// it consumed, or ErrNoSolution (any error means "no proposal"). The
// framework re-verifies every proposal before splicing: the replacement
// must stay on the subcircuit's qubit count, must be native to the run's
// target set, and the independently measured Hilbert–Schmidt error — not
// the synthesizer's claim — must fit the allowance. A synthesizer that
// over-reports ε (claims more than the allowance) is rejected outright,
// and the budget is debited with the larger of claim and measurement, so
// a buggy or adversarial implementation cannot break the Thm 4.2
// guarantee; honor the contract and the consumed ε is debited from
// Options.Epsilon exactly like built-in resynthesis. Implementations must
// be safe for concurrent use (parallel modes synthesize from several
// workers) and should honor ctx cancellation promptly.
type Synthesizer interface {
	// Name identifies the synthesizer in logs.
	Name() string
	// Synthesize proposes a replacement for sub within eps.
	Synthesize(ctx context.Context, sub *Circuit, eps float64) (replacement *Circuit, consumed float64, err error)
}

// UseSynthesizer wraps a Synthesizer as a slow Transformation for
// Options.Transformations or RegisterTransformation. Like built-in
// resynthesis it enters the search at three declared ε classes, ε_f, ε_f/4
// and ε_f/16, so it stays admissible after the run has spent part of its
// budget.
func UseSynthesizer(s Synthesizer) Transformation {
	return &synthTransformation{s: s}
}

type synthTransformation struct {
	s Synthesizer
}

// Name implements Transformation.
func (t *synthTransformation) Name() string { return "synth:" + t.s.Name() }

func (t *synthTransformation) compile(gs *gateset.GateSet, epsF float64) ([]opt.Transformation, error) {
	if t.s == nil {
		return nil, fmt.Errorf("guoq: UseSynthesizer(nil)")
	}
	// The classes of opt.Instantiate's built-in resynthesis.
	var out []opt.Transformation
	for _, div := range []float64{1, 4, 16} {
		out = append(out, &opt.CircuitResynthTransformation{
			Synth:       t.s,
			MaxQubits:   3,
			DeclaredEps: epsF / div,
			GateSet:     gs,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Registration.

// globalTransformations holds process-wide registered transformations with
// their gate set filter.
var globalTransformations = struct {
	sync.RWMutex
	entries []struct {
		target string
		t      Transformation
	}
}{}

// RegisterTransformation adds a transformation to every future run whose
// target gate set matches: target names one gate set, "" (or "*") applies
// to all of them. Per-run alternatives go in Options.Transformations; both
// compose with — never replace — the built-in portfolio, and the default
// portfolio with no registrations is byte-identical to previous releases
// (seeded runs reproduce exactly).
func RegisterTransformation(target string, t Transformation) error {
	if t == nil {
		return fmt.Errorf("guoq: RegisterTransformation(nil)")
	}
	if target == "*" {
		target = ""
	}
	globalTransformations.Lock()
	globalTransformations.entries = append(globalTransformations.entries, struct {
		target string
		t      Transformation
	}{target, t})
	globalTransformations.Unlock()
	return nil
}

// compileExtensions builds the opt-layer transformations extending the
// default portfolio for one run: globally registered entries matching the
// gate set (registration order), then the per-run Options.Transformations.
func compileExtensions(gs *gateset.GateSet, epsF float64, perRun []Transformation) ([]opt.Transformation, error) {
	var out []opt.Transformation
	globalTransformations.RLock()
	entries := append([]struct {
		target string
		t      Transformation
	}(nil), globalTransformations.entries...)
	globalTransformations.RUnlock()
	for _, e := range entries {
		if e.target != "" && e.target != gs.Name {
			continue
		}
		ct, err := e.t.compile(gs, epsF)
		if err != nil {
			return nil, err
		}
		out = append(out, ct...)
	}
	for _, t := range perRun {
		if t == nil {
			return nil, fmt.Errorf("guoq: Options.Transformations contains a nil entry")
		}
		ct, err := t.compile(gs, epsF)
		if err != nil {
			return nil, err
		}
		out = append(out, ct...)
	}
	return out, nil
}
