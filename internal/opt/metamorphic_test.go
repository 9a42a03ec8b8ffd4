package opt

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/verify"
)

// The metamorphic harness: optimizing a random circuit — under any gate
// set, seed, or parallelism mode — must yield a circuit that is
// ε-equivalent to the input and never worse under the objective. These are
// the properties Thm 5.3 promises for every run, so they must hold on
// arbitrary inputs, not just the benchmark suite.

type runMode struct {
	name string
	run  func(c *circuit.Circuit, ts []Transformation, opts Options) *Result
}

func runModes() []runMode {
	return []runMode{
		{"serial", func(c *circuit.Circuit, ts []Transformation, opts Options) *Result {
			return GUOQ(c, ts, opts)
		}},
		{"portfolio4", func(c *circuit.Circuit, ts []Transformation, opts Options) *Result {
			return Portfolio(c, ts, opts, 4)
		}},
		{"partition4", func(c *circuit.Circuit, ts []Transformation, opts Options) *Result {
			return PartitionParallel(c, ts, opts, 4)
		}},
	}
}

func TestMetamorphicEquivalence(t *testing.T) {
	const eps = 1e-8
	gateSets := []*gateset.GateSet{gateset.IBMQ20, gateset.Nam, gateset.CliffordT}
	for _, gs := range gateSets {
		ts, err := Instantiate(gs, InstantiateOptions{
			EpsilonF:  eps,
			SynthTime: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42} {
			// 6 qubits × 60 gates: wide enough for TimeWindows to engage
			// (2 × minWindowGates) while staying fast to simulate.
			c := circuit.Random(6, 60, gs.Gates, rand.New(rand.NewSource(seed)))
			inputCost := TwoQubitCost()(c)
			for _, mode := range runModes() {
				mode := mode
				t.Run(fmt.Sprintf("%s/seed%d/%s", gs.Name, seed, mode.name), func(t *testing.T) {
					t.Parallel()
					opts := DefaultOptions()
					opts.Epsilon = eps
					opts.Cost = TwoQubitCost()
					opts.Context = timeout(t, 120*time.Millisecond)
					opts.Seed = seed
					res := mode.run(c, ts, opts)

					if res.Best.NumQubits != c.NumQubits {
						t.Fatalf("qubit count changed: %d -> %d", c.NumQubits, res.Best.NumQubits)
					}
					if res.BestError > opts.Epsilon {
						t.Fatalf("BestError %g exceeds budget %g", res.BestError, opts.Epsilon)
					}
					if got := opts.Cost(res.Best); got > inputCost {
						t.Fatalf("cost regressed: %g -> %g", inputCost, got)
					}
					// ε = 1e-8 plus simulation round-off sits far below the
					// 1e-6 overlap tolerance; an inequivalent circuit fails
					// by orders of magnitude.
					if err := verify.MustBeEquivalent(c, res.Best, 1e-6, seed); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestMetamorphicAcrossParallelism pins the cross-mode metamorphic
// relation directly: for a fixed input, every parallelism level must agree
// on the input's unitary (they may differ on gate counts, never on
// semantics).
func TestMetamorphicAcrossParallelism(t *testing.T) {
	const eps = 1e-8
	gs := gateset.IBMEagle
	ts, err := Instantiate(gs, InstantiateOptions{EpsilonF: eps, SynthTime: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.Random(5, 48, gs.Gates, rand.New(rand.NewSource(7)))
	opts := DefaultOptions()
	opts.Epsilon = eps
	opts.Cost = TwoQubitCost()
	opts.Seed = 7
	var outs []*circuit.Circuit
	for _, workers := range []int{1, 2, 4} {
		opts.Context = timeout(t, 100*time.Millisecond)
		res := Portfolio(c, ts, opts, workers)
		if err := verify.MustBeEquivalent(c, res.Best, 1e-6, 7); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outs = append(outs, res.Best)
	}
	for i, out := range outs[1:] {
		if err := verify.MustBeEquivalent(outs[0], out, 1e-6, 11); err != nil {
			t.Fatalf("outputs at parallelism 1 and %d diverge: %v", []int{2, 4}[i], err)
		}
	}
}
