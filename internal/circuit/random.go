package circuit

import (
	"math"
	"math/rand"

	"github.com/guoq-dev/guoq/internal/gate"
)

// Random generates a random circuit of the given size drawing gates from
// vocab. Parameterized gates get uniform angles in (−π, π]; qubits are drawn
// uniformly without replacement. Used by tests, property checks, and the
// fuzz-style equivalence suites.
func Random(n, gates int, vocab []gate.Name, rng *rand.Rand) *Circuit {
	c := New(n)
	for len(c.Gates) < gates {
		name := vocab[rng.Intn(len(vocab))]
		spec, ok := gate.SpecOf(name)
		if !ok || spec.Qubits > n {
			continue
		}
		qs := randQubits(n, spec.Qubits, rng)
		ps := make([]float64, spec.Params)
		for i := range ps {
			ps[i] = rng.Float64()*2*math.Pi - math.Pi
		}
		c.Append(gate.New(name, qs, ps))
	}
	return c
}

// randQubits draws k distinct qubits from [0, n).
func randQubits(n, k int, rng *rand.Rand) []int {
	if k == 1 {
		return []int{rng.Intn(n)}
	}
	perm := rng.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// DefaultTestVocab is a mixed vocabulary exercising 1- and 2-qubit gates
// with and without parameters.
var DefaultTestVocab = []gate.Name{
	gate.H, gate.X, gate.T, gate.Tdg, gate.S, gate.Rz, gate.Rx,
	gate.CX, gate.CZ, gate.Rzz,
}
