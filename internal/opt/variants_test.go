package opt

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// TestBeamPinned pins Beam's seeded output: the QUESO (width 32) and
// Quartz (width 64) proxies on the fast set and GUOQ-BEAM on the full set,
// each bounded by iterations, on every 16th ibm-eagle suite circuit with
// seed index+1. The hash covers each best circuit's QASM and the bits of
// its error bound. GUOQ-BEAM's set resynthesizes at most 2 qubits, so every
// synthesis call ends far below its time cap and the output cannot depend
// on the host's speed.
func TestBeamPinned(t *testing.T) {
	gs := gateset.IBMEagle
	suite, err := benchmarks.SuiteFor(gs)
	if err != nil {
		t.Fatal(err)
	}
	full, err := DefaultRegistry().Build(gs, InstantiateOptions{EpsilonF: 1e-8, MaxQubits: 2, WithPhaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := DefaultRegistry().Build(gs, InstantiateOptions{EpsilonF: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	fast = FilterFast(fast)
	for _, tc := range []struct {
		name         string
		ts           []Transformation
		width, iters int
		want         string
	}{
		{"queso", fast, 32, 40, "4c1b0eff2a41fa8d"},
		{"quartz", fast, 64, 40, "d05f8ff48183e2e1"},
		{"guoq-beam", full, 32, 10, "b285997e9bba251a"},
	} {
		h := fnv.New64a()
		for i := 0; i < len(suite); i += 16 {
			opts := DefaultOptions()
			opts.Cost = TwoQubitCost()
			opts.MaxIters = tc.iters
			opts.Seed = int64(i + 1)
			opts.Context = context.Background()
			res := Beam(suite[i].Circuit, tc.ts, opts, tc.width)
			io.WriteString(h, res.Best.WriteQASM())
			fmt.Fprintf(h, "%x\n", math.Float64bits(res.BestError))
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("%s: output hash %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
