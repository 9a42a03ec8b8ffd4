package rewrite

import (
	"math"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

const tol = 1e-9

// TestAllRulesSound machine-verifies every registered rule: pattern ≡
// replacement (mod global phase) at many randomized variable bindings.
func TestAllRulesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for lib, rules := range AllLibraries() {
		if len(rules) == 0 {
			t.Errorf("library %s is empty", lib)
		}
		for _, r := range rules {
			for trial := 0; trial < 25; trial++ {
				binding := make([]float64, r.NumVars)
				for i := range binding {
					binding[i] = rng.Float64()*2*math.Pi - math.Pi
				}
				if d := r.Verify(binding); d > tol {
					t.Errorf("%s: unsound at binding %v (Δ = %g)", r.Name, binding, d)
					break
				}
			}
		}
	}
}

// TestRulesNotSizeIncreasing checks the GUOQ instantiation constraint of §6:
// no size-increasing rules — except rules that strictly reduce two-qubit
// gate count (the primary cost), like dissolving rxx(π) into local flips.
func TestRulesNotSizeIncreasing(t *testing.T) {
	twoQ := func(gs []PatGate) int {
		n := 0
		for _, g := range gs {
			if len(g.Qubits) == 2 {
				n++
			}
		}
		return n
	}
	twoQRep := func(gs []RepGate) int {
		n := 0
		for _, g := range gs {
			if len(g.Qubits) == 2 {
				n++
			}
		}
		return n
	}
	for lib, rules := range AllLibraries() {
		for _, r := range rules {
			if r.Delta() > 0 && twoQRep(r.Replacement) >= twoQ(r.Pattern) {
				t.Errorf("%s/%s: size-increasing rule (Δ=%+d) without 2q reduction",
					lib, r.Name, r.Delta())
			}
		}
	}
}

// TestRulesNativeToTheirGateSet checks that each library's patterns and
// replacements only mention gates of its gate set.
func TestRulesNativeToTheirGateSet(t *testing.T) {
	for lib, rules := range AllLibraries() {
		gs, err := gateset.ByName(lib)
		if err != nil {
			t.Fatalf("library %s has no gate set: %v", lib, err)
		}
		for _, r := range rules {
			for _, pg := range r.Pattern {
				if !gs.Contains(pg.Name) {
					t.Errorf("%s: pattern gate %s not native", r.Name, pg.Name)
				}
			}
			for _, rg := range r.Replacement {
				if !gs.Contains(rg.Name) {
					t.Errorf("%s: replacement gate %s not native", r.Name, rg.Name)
				}
			}
		}
	}
}

func findRule(t *testing.T, lib, name string) *Rule {
	t.Helper()
	rules, err := RulesFor(lib)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("rule %s not found in %s", name, lib)
	return nil
}

func TestFullPassCXCancel(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.NewCX(0, 1), gate.NewCX(0, 1), gate.NewCX(1, 2), gate.NewCX(1, 2))
	r := findRule(t, "nam", "nam/cx-cx")
	out, n := FullPass(c, r, 0)
	if n != 2 || out.Len() != 0 {
		t.Fatalf("FullPass replaced %d sites, %d gates left", n, out.Len())
	}
}

func TestFullPassPaperFig4(t *testing.T) {
	// Fig. 4: rz(π/2) q0; cx q0 q1; rz(π/2) q0; h q1 →(3c) →(3d) rz(π) q0 ...
	c := circuit.New(2)
	c.Append(
		gate.NewRz(math.Pi/2, 0),
		gate.NewCX(0, 1),
		gate.NewRz(math.Pi/2, 0),
		gate.NewH(1),
	)
	orig := c.Unitary()
	// Apply the commute rule (Fig. 3c), then the merge rule (Fig. 3d).
	commute := findRule(t, "nam", "nam/cx-control-rz")
	c2, n := FullPass(c, commute, 0)
	if n != 1 {
		t.Fatalf("commute matched %d times, want 1", n)
	}
	merge := findRule(t, "nam", "nam/rz-merge")
	c3, n := FullPass(c2, merge, 0)
	if n != 1 {
		t.Fatalf("merge matched %d times, want 1", n)
	}
	if got := c3.Len(); got != 3 {
		t.Fatalf("expected 3 gates after Fig. 4 sequence, got %d:\n%v", got, c3)
	}
	if !linalg.EqualUpToPhase(c3.Unitary(), orig, tol) {
		t.Fatal("Fig. 4 rewrite changed semantics")
	}
	// The merged rotation is rz(π).
	found := false
	for _, g := range c3.Gates {
		if g.Name == gate.Rz && math.Abs(linalg.NormAngle(g.Params[0]-math.Pi)) < tol {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rz(π) in result:\n%v", c3)
	}
}

func TestCXReversalMatch(t *testing.T) {
	// The 5-gate reversal pattern has parallel H gates — exercises the BFS
	// matcher with prev-side constraints.
	c := circuit.New(2)
	c.Append(gate.NewH(0), gate.NewH(1), gate.NewCX(0, 1), gate.NewH(0), gate.NewH(1))
	orig := c.Unitary()
	r := findRule(t, "nam", "nam/cx-reversal")
	out, n := FullPass(c, r, 0)
	if n != 1 || out.Len() != 1 {
		t.Fatalf("reversal: %d matches, %d gates:\n%v", n, out.Len(), out)
	}
	if out.Gates[0].Qubits[0] != 1 || out.Gates[0].Qubits[1] != 0 {
		t.Fatalf("reversed cx has wrong qubits: %v", out.Gates[0])
	}
	if !linalg.EqualUpToPhase(out.Unitary(), orig, tol) {
		t.Fatal("reversal changed semantics")
	}
}

func TestMatchRejectsInterferingGate(t *testing.T) {
	// cx; x(target); cx must NOT match cx-cx cancellation.
	c := circuit.New(2)
	c.Append(gate.NewCX(0, 1), gate.NewX(1), gate.NewCX(0, 1))
	r := findRule(t, "nam", "nam/cx-cx")
	_, n := FullPass(c, r, 0)
	if n != 0 {
		t.Fatal("matched across an interfering gate")
	}
	// A spectator on an unrelated qubit does not interfere.
	c2 := circuit.New(3)
	c2.Append(gate.NewCX(0, 1), gate.NewX(2), gate.NewCX(0, 1))
	out, n := FullPass(c2, r, 0)
	if n != 1 || out.Len() != 1 {
		t.Fatalf("spectator blocked the match: n=%d len=%d", n, out.Len())
	}
}

func TestMatchBindsAngles(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.NewRz(0.3, 0), gate.NewRz(0.4, 0))
	r := findRule(t, "nam", "nam/rz-merge")
	out, n := FullPass(c, r, 0)
	if n != 1 || out.Len() != 1 {
		t.Fatalf("merge failed: n=%d", n)
	}
	if math.Abs(out.Gates[0].Params[0]-0.7) > tol {
		t.Fatalf("merged angle = %g, want 0.7", out.Gates[0].Params[0])
	}
}

func TestMatchConstParam(t *testing.T) {
	r := findRule(t, "nam", "nam/h-z-h")
	c := circuit.New(1)
	c.Append(gate.NewH(0), gate.NewRz(math.Pi, 0), gate.NewH(0))
	_, n := FullPass(c, r, 0)
	if n != 1 {
		t.Fatal("const π param should match rz(π)")
	}
	// rz(-π) ≡ rz(π) mod 2π — must also match.
	c2 := circuit.New(1)
	c2.Append(gate.NewH(0), gate.NewRz(-math.Pi, 0), gate.NewH(0))
	_, n = FullPass(c2, r, 0)
	if n != 1 {
		t.Fatal("rz(-π) should match the π constant (mod 2π)")
	}
	// Other angles must not match.
	c3 := circuit.New(1)
	c3.Append(gate.NewH(0), gate.NewRz(0.5, 0), gate.NewH(0))
	_, n = FullPass(c3, r, 0)
	if n != 0 {
		t.Fatal("rz(0.5) must not match the π constant")
	}
}

func TestRepeatedVarMustAgree(t *testing.T) {
	r := MustRule("test/rz-same-angle", 1, 1,
		[]PatGate{P(gate.Rz, []PatParam{V(0)}, 0), P(gate.Rz, []PatParam{V(0)}, 0)},
		[]RepGate{Rep(gate.Rz, []ParamExpr{{Coeffs: map[int]float64{0: 2}}}, 0)})
	c := circuit.New(1)
	c.Append(gate.NewRz(0.3, 0), gate.NewRz(0.3, 0))
	if _, n := FullPass(c, r, 0); n != 1 {
		t.Fatal("equal angles should match repeated var")
	}
	c2 := circuit.New(1)
	c2.Append(gate.NewRz(0.3, 0), gate.NewRz(0.4, 0))
	if _, n := FullPass(c2, r, 0); n != 0 {
		t.Fatal("unequal angles must not match repeated var")
	}
}

// TestFullPassPreservesSemantics fuzzes every rule library against random
// native circuits: every full pass must preserve the unitary.
func TestFullPassPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for lib, rules := range AllLibraries() {
		gs, _ := gateset.ByName(lib)
		vocab := gs.Gates
		for trial := 0; trial < 30; trial++ {
			c := circuit.Random(4, 24, vocab, rng)
			u := c.Unitary()
			for _, r := range rules {
				out, n := FullPass(c, r, rng.Intn(c.Len()))
				if n == 0 {
					continue
				}
				if !linalg.EqualUpToPhase(out.Unitary(), u, 1e-8) {
					t.Fatalf("%s: full pass broke semantics (lib %s, trial %d)", r.Name, lib, trial)
				}
			}
		}
	}
}

// TestCleanupPreservesSemantics fuzzes the cleanup pass.
func TestCleanupPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, gs := range gateset.All() {
		for trial := 0; trial < 40; trial++ {
			c := circuit.Random(4, 30, gs.Gates, rng)
			u := c.Unitary()
			out, _ := CleanupChangedFor(c, gs)
			if out.Len() > c.Len() {
				t.Fatalf("%s: cleanup grew the circuit", gs.Name)
			}
			if !linalg.EqualUpToPhase(out.Unitary(), u, 1e-8) {
				t.Fatalf("%s trial %d: cleanup broke semantics\nin:  %v\nout: %v",
					gs.Name, trial, c, out)
			}
			if !gs.IsNative(out) {
				t.Fatalf("%s: cleanup emitted non-native gates", gs.Name)
			}
		}
	}
}

func TestCleanupCancelsObviousPairs(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.NewH(0), gate.NewH(0), gate.NewT(1), gate.NewTdg(1),
		gate.NewCX(0, 1), gate.NewCX(0, 1))
	out, _ := CleanupChangedFor(c, gateset.CliffordT)
	if out.Len() != 0 {
		t.Fatalf("cleanup left %d gates:\n%v", out.Len(), out)
	}
}

func TestCleanupMergesPhaseRuns(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.NewT(0), gate.NewT(0), gate.NewT(0), gate.NewT(0))
	out, _ := CleanupChangedFor(c, gateset.CliffordT)
	// t·t·t·t = z = s·s.
	if out.Len() != 2 || out.Gates[0].Name != gate.S || out.Gates[1].Name != gate.S {
		t.Fatalf("t^4 should clean to s·s, got:\n%v", out)
	}
	// In a continuous set the same run becomes one rz.
	c2 := circuit.New(1)
	c2.Append(gate.NewRz(0.5, 0), gate.NewRz(0.25, 0), gate.NewRz(-0.75, 0))
	out2, _ := CleanupChangedFor(c2, gateset.Nam)
	if out2.Len() != 0 {
		t.Fatalf("zero-sum rz run should vanish, got:\n%v", out2)
	}
}

func TestCleanupStackRestoration(t *testing.T) {
	// After h·h cancels, the t gates on both sides become adjacent and must
	// also merge: t h h t -> s.
	c := circuit.New(1)
	c.Append(gate.NewT(0), gate.NewH(0), gate.NewH(0), gate.NewT(0))
	out, _ := CleanupChangedFor(c, gateset.CliffordT)
	if out.Len() != 1 || out.Gates[0].Name != gate.S {
		t.Fatalf("t h h t should clean to s, got:\n%v", out)
	}
}

func TestFuse1QPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, gs := range gateset.All() {
		if !gs.Continuous() {
			continue
		}
		for trial := 0; trial < 30; trial++ {
			c := circuit.Random(3, 24, gs.Gates, rng)
			u := c.Unitary()
			out, _ := Fuse1QChanged(c, gs)
			if out.Len() > c.Len() {
				t.Fatalf("%s: fuse grew the circuit %d -> %d", gs.Name, c.Len(), out.Len())
			}
			if !linalg.EqualUpToPhase(out.Unitary(), u, 1e-8) {
				t.Fatalf("%s trial %d: fuse broke semantics", gs.Name, trial)
			}
			if !gs.IsNative(out) {
				t.Fatalf("%s: fuse emitted non-native gates", gs.Name)
			}
		}
	}
}

func TestFuse1QCollapsesRun(t *testing.T) {
	c := circuit.New(1)
	c.Append(gate.NewU3(0.3, 0.4, 0.5, 0), gate.NewU3(1.1, -0.2, 0.9, 0),
		gate.NewU1(0.7, 0), gate.NewU2(0.1, 0.2, 0))
	out, _ := Fuse1QChanged(c, gateset.IBMQ20)
	if out.Len() != 1 {
		t.Fatalf("4-gate run should fuse to 1 u3, got %d:\n%v", out.Len(), out)
	}
}

func TestNewRuleValidation(t *testing.T) {
	// Disconnected pattern must be rejected.
	_, err := NewRule("bad/disconnected", 2, 0,
		[]PatGate{P(gate.H, nil, 0), P(gate.H, nil, 1)},
		nil)
	if err == nil {
		t.Fatal("disconnected pattern accepted")
	}
	// Empty pattern rejected.
	if _, err := NewRule("bad/empty", 1, 0, nil, nil); err == nil {
		t.Fatal("empty pattern accepted")
	}
	// Wrong arity rejected.
	if _, err := NewRule("bad/arity", 1, 0,
		[]PatGate{{Name: gate.CX, Qubits: []int{0}}}, nil); err == nil {
		t.Fatal("wrong arity accepted")
	}
	// Out-of-range qubit rejected.
	if _, err := NewRule("bad/qubit", 1, 0,
		[]PatGate{P(gate.H, nil, 5)}, nil); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
}

func TestRulesForUnknown(t *testing.T) {
	if _, err := RulesFor("nope"); err == nil {
		t.Fatal("RulesFor(nope) should fail")
	}
}
