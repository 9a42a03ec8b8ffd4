package circuit_test

import (
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// eagleSuite returns the NISQ suite translated into ibm-eagle.
func eagleSuite(tb testing.TB) []*circuit.Circuit {
	tb.Helper()
	suite, err := benchmarks.SuiteFor(gateset.IBMEagle)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*circuit.Circuit, len(suite))
	for i, b := range suite {
		out[i] = b.Circuit
	}
	return out
}

// The codec's allocations are pinned to its output: ParseQASM makes at
// most the gate's qubit and parameter slices per gate, plus a constant for
// the circuit, its gate slice and the register table; WriteQASM makes one
// buffer whatever the gate count.
func TestQASMCodecAllocs(t *testing.T) {
	for _, c := range eagleSuite(t) {
		src := c.WriteQASM()
		if parse := testing.AllocsPerRun(2, func() { _, _ = circuit.ParseQASM(src) }); parse > float64(2*len(c.Gates)+4) {
			t.Errorf("ParseQASM of %d gates: %v allocs, want at most %d", len(c.Gates), parse, 2*len(c.Gates)+4)
		}
		if write := testing.AllocsPerRun(2, func() { _ = c.WriteQASM() }); write > 1 {
			t.Errorf("WriteQASM of %d gates: %v allocs, want 1", len(c.Gates), write)
		}
	}
}

var qasmSink string

// BenchmarkQASMCanonicalize is guoqd's canonicalization of a submitted
// circuit, ParseQASM then WriteQASM, over the whole ibm-eagle suite.
func BenchmarkQASMCanonicalize(b *testing.B) {
	var srcs []string
	gates := 0
	for _, c := range eagleSuite(b) {
		srcs = append(srcs, c.WriteQASM())
		gates += len(c.Gates)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			c, err := circuit.ParseQASM(src)
			if err != nil {
				b.Fatal(err)
			}
			qasmSink = c.WriteQASM()
		}
	}
	b.ReportMetric(float64(gates), "gates/op")
}
