package guoq

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/verify"
)

// newCZSet returns a fresh CZ-entangler superconducting target — the
// running example of a gate set outside the paper's five.
func newCZSet(name string) *GateSet {
	return &GateSet{
		Name:          name,
		Architecture:  "superconducting",
		Basis:         []string{"rz", "sx", "x", "cz"},
		OneQubitError: 2.5e-4,
		TwoQubitError: 6e-3,
	}
}

// testInput builds a small circuit with redundancy for the optimizer.
func testInput() *Circuit {
	c := NewCircuit(3)
	c.Append(H(0), CX(0, 1), CX(0, 1), T(2), Tdg(2), CCX(0, 1, 2), Swap(1, 2), Rz(0.4, 0))
	return c
}

// TestCustomGateSetEndToEnd: a custom gate set registered through the
// public API runs under Start — translation, search, and output all stay
// inside the custom basis, and the result is ε-equivalent to the input.
func TestCustomGateSetEndToEnd(t *testing.T) {
	set := newCZSet("cz-e2e")
	if err := RegisterGateSet(set); err != nil {
		t.Fatal(err)
	}
	in := testInput()
	native, err := Translate(in, "cz-e2e") // by registered name
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualUpToPhase(native.Unitary(), in.Unitary(), 1e-9) {
		t.Fatal("translation into the custom set changed the unitary")
	}
	sess, err := Start(context.Background(), native, Options{
		GateSet: "cz-e2e",
		Budget:  300 * time.Millisecond,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.GateSet != "cz-e2e" {
		t.Fatalf("Result.GateSet = %q", res.GateSet)
	}
	if res.TwoQubitAfter > res.TwoQubitBefore {
		t.Fatalf("made circuit worse: %d -> %d", res.TwoQubitBefore, res.TwoQubitAfter)
	}
	for _, g := range out.Gates {
		switch string(g.Name) {
		case "rz", "sx", "x", "cz":
		default:
			t.Fatalf("non-native gate %s in output", g.Name)
		}
	}
	if !linalg.EqualUpToPhase(out.Unitary(), native.Unitary(), 1e-7) {
		t.Fatal("optimization broke semantics on the custom set")
	}
	if f, err := EstimateFidelity(out, "cz-e2e"); err != nil || f <= 0 || f >= 1 {
		t.Fatalf("EstimateFidelity on custom set = %g, %v", f, err)
	}
}

// TestOptionsTargetValue: Options.Target accepts a *GateSet directly, with
// no registration — ad-hoc targets stay run-local.
func TestOptionsTargetValue(t *testing.T) {
	set := newCZSet("cz-adhoc")
	native, err := set.Translate(testInput())
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := Optimize(native, Options{
		Target: set,
		Budget: 200 * time.Millisecond,
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GateSet != "cz-adhoc" {
		t.Fatalf("Result.GateSet = %q", res.GateSet)
	}
	if !linalg.EqualUpToPhase(out.Unitary(), native.Unitary(), 1e-7) {
		t.Fatal("semantics broken")
	}
	// The ad-hoc name must not have leaked into the registry.
	if _, err := LookupGateSet("cz-adhoc"); err == nil {
		t.Fatal("unregistered Target leaked into the registry")
	}
}

// TestTargetValidation pins Options.Target error paths.
func TestTargetValidation(t *testing.T) {
	c := NewCircuit(1)
	c.Append(H(0))
	if _, _, err := Optimize(c, Options{}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, _, err := Optimize(c, Options{GateSet: "nam", Target: "nam"}); err == nil {
		t.Fatal("GateSet and Target together accepted")
	}
	if _, _, err := Optimize(c, Options{Target: 42}); err == nil {
		t.Fatal("bogus Target type accepted")
	}
	if _, _, err := Optimize(c, Options{Target: &GateSet{Name: "x", Basis: []string{"h", "nope"}}}); err == nil {
		t.Fatal("unknown basis gate accepted")
	}
	if err := (Options{Target: "nam"}).Validate(); err != nil {
		t.Fatalf("Target by name failed Validate: %v", err)
	}
}

// TestParseGateSetJSON round-trips the JSON form and rejects bad specs.
func TestParseGateSetJSON(t *testing.T) {
	gs, err := ParseGateSetJSON([]byte(`{"name":"js-cz","architecture":"superconducting",
		"basis":["rz","sx","x","cz"],"two_qubit_error":6e-3,
		"gate_errors":{"sx":1e-4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if gs.Name != "js-cz" || len(gs.Basis) != 4 || gs.GateErrors["sx"] != 1e-4 {
		t.Fatalf("parsed %+v", gs)
	}
	if _, err := ParseGateSetJSON([]byte(`{"name":"bad","basis":["frob"]}`)); err == nil {
		t.Fatal("unknown gate accepted")
	}
	if _, err := ParseGateSetJSON([]byte(`{"name":"bad","basis":["h"],"two_qubit_error":2}`)); err == nil {
		t.Fatal("error rate ≥ 1 accepted")
	}
	if _, err := ParseGateSetJSON([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestNewRuleVerification: NewRule machine-verifies equivalence — valid
// rules (with symbolic angles, negation, sums) construct; invalid ones are
// rejected with the measured divergence.
func TestNewRuleVerification(t *testing.T) {
	if _, err := NewRule("rz-merge", 1,
		[]Gate{Rz(Angle(0), 0), Rz(Angle(1), 0)},
		[]Gate{Rz(AngleSum(0, 1), 0)}); err != nil {
		t.Fatalf("valid merge rule rejected: %v", err)
	}
	if _, err := NewRule("cx-rz-flip", 2,
		[]Gate{CX(0, 1), Rz(Angle(0), 0), CX(0, 1)},
		[]Gate{Rz(Angle(0), 0)}); err != nil {
		t.Fatalf("valid conjugation rule rejected: %v", err)
	}
	if _, err := NewRule("x-rz-flip", 1,
		[]Gate{X(0), Rz(Angle(0), 0), X(0)},
		[]Gate{Rz(AngleNeg(0), 0)}); err != nil {
		t.Fatalf("valid negation rule rejected: %v", err)
	}
	// Not an equivalence: h·h ≠ x.
	if _, err := NewRule("bogus", 1, []Gate{H(0), H(0)}, []Gate{X(0)}); err == nil {
		t.Fatal("non-equivalent rule accepted")
	}
	// AngleNeg is replacement-only.
	if _, err := NewRule("neg-in-pattern", 1,
		[]Gate{Rz(AngleNeg(0), 0)}, []Gate{Rz(AngleNeg(0), 0)}); err == nil {
		t.Fatal("AngleNeg accepted in a pattern")
	}
	// Empty patterns are invalid.
	if _, err := NewRule("empty", 1, nil, nil); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

// TestCustomRuleRuns: a rule registered per-run is sampled by the search
// and fires. The rule collapses the planted sx·sx pairs that nothing in
// the nam library handles... (sx is not nam-native, so use a custom set
// where only the custom rule can do this particular reduction).
func TestCustomRuleRuns(t *testing.T) {
	set := newCZSet("cz-rule")
	// sx·sx = x (up to phase): natively representable, and the custom set
	// has no built-in rule library at all, so any rule-driven reduction
	// proves the user rule executed.
	rule, err := NewRule("sxsx-to-x", 1,
		[]Gate{SX(0), SX(0)},
		[]Gate{X(0)})
	if err != nil {
		t.Fatal(err)
	}
	in := NewCircuit(2)
	for q := 0; q < 2; q++ {
		in.Append(SX(q), SX(q))
	}
	in.Append(CZ(0, 1), SX(0), SX(0))
	out, res, err := Optimize(in, Options{
		Target:          set,
		Budget:          200 * time.Millisecond,
		Seed:            3,
		Transformations: []Transformation{rule},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualUpToPhase(out.Unitary(), in.Unitary(), 1e-7) {
		t.Fatal("custom rule run broke semantics")
	}
	if res.After >= res.Before {
		t.Fatalf("custom rule never reduced the circuit: %d -> %d gates", res.Before, res.After)
	}

	// A rule whose replacement leaves the target set must fail Start.
	alien, err := NewRule("h-ident", 1, []Gate{H(0), H(0)}, []Gate{})
	if err != nil {
		t.Fatal(err)
	}
	_ = alien
	hRule, err := NewRule("x-to-hzh", 1,
		[]Gate{X(0)},
		[]Gate{H(0), Z(0), H(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(context.Background(), NewCircuit(1), Options{
		Target:          set,
		Transformations: []Transformation{hRule},
	}); err == nil {
		t.Fatal("rule with non-native replacement accepted by Start")
	}
}

// countingSynth drops near-identity rz gates, reporting the measured ε —
// a minimal honest external synthesizer.
type countingSynth struct {
	calls     atomic.Int64
	proposals atomic.Int64
}

func (s *countingSynth) Name() string { return "tiny-rz-dropper" }

func (s *countingSynth) Synthesize(_ context.Context, sub *Circuit, eps float64) (*Circuit, float64, error) {
	s.calls.Add(1)
	out := NewCircuit(sub.NumQubits)
	dropped := false
	for _, g := range sub.Gates {
		if g.Name == gate.Rz && math.Abs(g.Params[0]) < 5e-3 && g.Params[0] != 0 {
			dropped = true
			continue
		}
		out.Gates = append(out.Gates, g.Clone())
	}
	if !dropped {
		return nil, 0, ErrNoSolution
	}
	consumed := linalg.HSDistance(sub.Unitary(), out.Unitary())
	if consumed > eps {
		return nil, 0, ErrNoSolution
	}
	s.proposals.Add(1)
	return out, consumed, nil
}

// TestCustomSynthesizerMetamorphic is the acceptance-criteria harness: a
// user-supplied Synthesizer under guoq.Start on a circuit with planted
// approximate redundancy. The run must stay ε-equivalent to the input
// (checked by the same randomized-state verification the metamorphic
// harness uses), the consumed ε must be debited from Options.Epsilon into
// Result.Error, and the accounted bound must dominate the true distance.
func TestCustomSynthesizerMetamorphic(t *testing.T) {
	const epsF = 1e-2
	// nam-native input with tiny planted rotations: removable only
	// approximately, so any reduction must consume budget.
	in := NewCircuit(3)
	for i := 0; i < 6; i++ {
		q := i % 3
		in.Append(CX(q, (q+1)%3), Rz(1e-3, q), H((q+2)%3))
	}
	syn := &countingSynth{}
	sess, err := Start(context.Background(), in, Options{
		GateSet:         "nam",
		Epsilon:         epsF,
		Budget:          400 * time.Millisecond,
		Seed:            4,
		Transformations: []Transformation{UseSynthesizer(syn)},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if syn.calls.Load() == 0 {
		t.Fatal("user synthesizer was never sampled by the search")
	}
	if res.Error <= 0 {
		t.Fatalf("Result.Error = %g: consumed ε was not debited from Options.Epsilon", res.Error)
	}
	if res.Error > epsF {
		t.Fatalf("Result.Error %g exceeds Options.Epsilon %g", res.Error, epsF)
	}
	if d := linalg.HSDistance(in.Unitary(), out.Unitary()); d > res.Error+1e-9 {
		t.Fatalf("true distance %g exceeds the debited bound %g", d, res.Error)
	}
	// The metamorphic equivalence harness's verdict on the same run.
	if err := verify.MustBeEquivalent(in, out, epsF*2+1e-6, 4); err != nil {
		t.Fatal(err)
	}
	// Resume composes the spent budget: a follow-up run may only consume
	// what is left.
	sess2, err := Resume(context.Background(), out, res, Options{
		GateSet:         "nam",
		Epsilon:         epsF,
		Budget:          100 * time.Millisecond,
		Seed:            5,
		Transformations: []Transformation{UseSynthesizer(syn)},
	})
	if err != nil {
		t.Fatal(err)
	}
	out2, res2, err := sess2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Error+res2.Error > epsF {
		t.Fatalf("composed spend %g + %g exceeds the original budget %g", res.Error, res2.Error, epsF)
	}
	if d := linalg.HSDistance(in.Unitary(), out2.Unitary()); d > res.Error+res2.Error+1e-9 {
		t.Fatalf("composed distance %g exceeds composed bound %g", d, res.Error+res2.Error)
	}
}

// TestUseSynthesizerEpsClasses: a user synthesizer enters the search at the
// classes of built-in resynthesis, ε_f, ε_f/4 and ε_f/16. Alg. 1 admits a
// τ_ε only while the spent error plus its ε fits ε_f, so with ε_f alone the
// synthesizer would never run again once any transformation had spent ε.
func TestUseSynthesizerEpsClasses(t *testing.T) {
	const epsF = 1e-2
	ts, err := UseSynthesizer(&countingSynth{}).compile(gateset.Nam, epsF)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{epsF, epsF / 4, epsF / 16}
	if len(ts) != len(want) {
		t.Fatalf("compiled to %d transformations, want %d", len(ts), len(want))
	}
	for i, ct := range ts {
		if !ct.Slow() || ct.Epsilon() != want[i] {
			t.Errorf("class %d: slow=%v ε=%g, want a slow transformation at ε=%g", i, ct.Slow(), ct.Epsilon(), want[i])
		}
	}
}

// TestRegisterTransformationGlobal: a globally registered transformation
// applies to runs targeting its gate set and leaves other sets alone.
func TestRegisterTransformationGlobal(t *testing.T) {
	set := newCZSet("cz-global")
	if err := RegisterGateSet(set); err != nil {
		t.Fatal(err)
	}
	rule := MustNewRule("sxsx-to-x-global", 1, []Gate{SX(0), SX(0)}, []Gate{X(0)})
	if err := RegisterTransformation("cz-global", rule); err != nil {
		t.Fatal(err)
	}
	in := NewCircuit(2)
	in.Append(SX(0), SX(0), CZ(0, 1), SX(1), SX(1))
	out, res, err := Optimize(in, Options{GateSet: "cz-global", Budget: 200 * time.Millisecond, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.After >= res.Before {
		t.Fatalf("globally registered rule never fired: %d -> %d", res.Before, res.After)
	}
	if !linalg.EqualUpToPhase(out.Unitary(), in.Unitary(), 1e-7) {
		t.Fatal("semantics broken")
	}
	// Other gate sets are untouched by the filtered registration: a seeded
	// nam run equals a pristine nam run.
	c := NewCircuit(2)
	c.Append(H(0), CX(0, 1), CX(0, 1), H(0), Rz(0.3, 1))
	o := Options{GateSet: "nam", Seed: 7, MaxIters: 150, Budget: 10 * time.Second}
	a, _, err := Optimize(c, o)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Optimize(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualUpToPhase(a.Unitary(), b.Unitary(), 1e-12) || a.Len() != b.Len() {
		t.Fatal("filtered global registration perturbed another gate set")
	}
}

// TestRegisterGateSetRejects: registration validation.
func TestRegisterGateSetRejects(t *testing.T) {
	if err := RegisterGateSet(&GateSet{Name: "nam", Basis: []string{"h"}}); err == nil {
		t.Fatal("built-in name accepted")
	}
	if err := RegisterGateSet(&GateSet{Name: "", Basis: []string{"h"}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterGateSet(&GateSet{Name: "bad-basis", Basis: []string{"warp"}}); err == nil {
		t.Fatal("unknown gate accepted")
	}
}

// TestAdHocTargetStaysNative is the regression pin for the review finding
// that cleanup/phase-folding emitted non-native rz gates for ad-hoc
// (unregistered) finite targets: a full Start run on such a target must
// end inside the basis.
func TestAdHocTargetStaysNative(t *testing.T) {
	set := &GateSet{
		Name:         "adhoc-ft",
		Architecture: "fault tolerant",
		Basis:        []string{"h", "s", "sdg", "t", "tdg", "x", "cz"},
	}
	in := NewCircuit(2)
	in.Append(T(0), T(0), H(1), CZ(0, 1), Tdg(0), Tdg(0), H(1))
	out, _, err := Optimize(in, Options{
		Target: set,
		Budget: 150 * time.Millisecond,
		Seed:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"h": true, "s": true, "sdg": true, "t": true, "tdg": true, "x": true, "cz": true}
	for _, g := range out.Gates {
		if !allowed[string(g.Name)] {
			t.Fatalf("ad-hoc target run emitted non-native gate %s", g.Name)
		}
	}
	if !linalg.EqualUpToPhase(out.Unitary(), in.Unitary(), 1e-7) {
		t.Fatal("semantics broken")
	}
}

// TestBuiltinNamesReserved: built-in names are rejected even for ad-hoc
// (unregistered) Target values, where name-keyed machinery would resolve
// to the wrong set.
func TestBuiltinNamesReserved(t *testing.T) {
	c := NewCircuit(1)
	c.Append(H(0))
	if _, _, err := Optimize(c, Options{Target: &GateSet{Name: "ionq", Basis: []string{"rz", "sx", "x", "cz"}}}); err == nil {
		t.Fatal("built-in name accepted for an ad-hoc Target")
	}
	// Re-registering the same description is idempotent; a different one
	// under the same name errors.
	set := newCZSet("cz-idem")
	if err := RegisterGateSet(set); err != nil {
		t.Fatal(err)
	}
	if err := RegisterGateSet(set); err != nil {
		t.Fatalf("idempotent re-registration failed: %v", err)
	}
	changed := newCZSet("cz-idem")
	changed.Basis = []string{"rz", "sx", "x", "cx"}
	if err := RegisterGateSet(changed); err == nil {
		t.Fatal("conflicting re-registration accepted")
	}
}

// TestUnregisteredTargetStaysNative is the regression pin for z-phases
// that leaked out of an unregistered continuous target: resynthesis
// cleaned its output by resolving the set's name, which an unregistered
// {u1, u2, u3, cx} set does not have, and merged z-phases came back as
// rz. A seeded, iteration-bounded run must end inside the basis.
func TestUnregisteredTargetStaysNative(t *testing.T) {
	set := &GateSet{
		Name:         "adhoc-u-basis",
		Architecture: "superconducting",
		Basis:        []string{"u1", "u2", "u3", "cx"},
	}
	in, err := set.Translate(circuit.Random(3, 30, circuit.DefaultTestVocab, rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"u1": true, "u2": true, "u3": true, "cx": true}
	for seed := int64(1); seed <= 6; seed++ {
		s, err := Start(context.Background(), in, Options{Target: set, MaxIters: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out, res, err := s.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range out.Gates {
			if !allowed[string(g.Name)] {
				t.Fatalf("seed %d: non-native gate %s in the output", seed, g.Name)
			}
		}
		if d := Distance(in, out); d > res.Error+1e-6 {
			t.Fatalf("seed %d: distance %g exceeds the reported ε %g", seed, d, res.Error)
		}
	}
}
