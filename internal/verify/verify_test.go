package verify

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/baselines"
	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
)

func TestEquivalentIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := circuit.Random(10, 80, circuit.DefaultTestVocab, rng)
	res, err := Equivalent(c, c.Clone(), Options{Seed: 1})
	if err != nil || !res.Equivalent {
		t.Fatalf("identical circuits reported different: %+v, %v", res, err)
	}
	if res.WorstOverlap < 1-1e-10 {
		t.Fatalf("overlap %g for identical circuits", res.WorstOverlap)
	}
}

func TestEquivalentModPhase(t *testing.T) {
	// rz(2π) is −I, a pure global phase: circuits must compare equal.
	a := circuit.New(2)
	a.Append(gate.NewH(0), gate.NewCX(0, 1))
	b := a.Clone()
	b.Append(gate.NewRz(2*math.Pi, 0))
	res, err := Equivalent(a, b, Options{Seed: 2})
	if err != nil || !res.Equivalent {
		t.Fatalf("global phase not ignored: %+v, %v", res, err)
	}
}

func TestInequivalentDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := circuit.Random(6, 30, circuit.DefaultTestVocab, rng)
		b := a.Clone()
		// Tamper with one gate.
		i := rng.Intn(b.Len())
		b.Gates[i] = gate.NewRy(1.234, b.Gates[i].Qubits[0])
		res, err := Equivalent(a, b, Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Equivalent {
			// Tampering could accidentally be equivalent only if the
			// replaced gate equals ry(1.234) — astronomically unlikely.
			t.Fatalf("trial %d: tampered circuit passed", trial)
		}
	}
}

func TestMismatchedShapes(t *testing.T) {
	a := circuit.New(2)
	b := circuit.New(3)
	if _, err := Equivalent(a, b, Options{}); err == nil {
		t.Fatal("qubit mismatch should error")
	}
	wide := circuit.New(MaxStateQubits + 1)
	if _, err := Equivalent(wide, wide, Options{}); err == nil {
		t.Fatal("too-wide circuit should error")
	}
}

// TestOptimizerOnWideBenchmark is the integration check this package exists
// for: run the full GUOQ baseline on a 15-qubit benchmark (beyond
// unitary evaluation) and verify equivalence by sampling.
func TestOptimizerOnWideBenchmark(t *testing.T) {
	gs := gateset.IBMEagle
	suite, err := benchmarks.SuiteFor(gs)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := benchmarks.ByName(suite, "barenco_tof_8")
	if !ok {
		t.Fatal("missing barenco_tof_8")
	}
	if b.Circuit.NumQubits < 14 {
		t.Fatalf("expected a wide benchmark, got %d qubits", b.Circuit.NumQubits)
	}
	tool := baselines.NewGUOQ(1e-8)
	out, _ := tool.OptimizeStats(b.Circuit, gs, opt.TwoQubitCost(), 500*time.Millisecond, 7)
	if err := MustBeEquivalent(b.Circuit, out, 1e-6, 11); err != nil {
		t.Fatal(err)
	}
	if out.TwoQubitCount() > b.Circuit.TwoQubitCount() {
		t.Fatal("optimizer worsened the benchmark")
	}
}

func TestRandomProductStateNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	state := make([]complex128, 1<<6)
	writeRandomProductState(state, 6, rng)
	var norm float64
	for _, v := range state {
		norm += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(norm-1) > 1e-10 {
		t.Fatalf("product state norm = %g", norm)
	}
}
