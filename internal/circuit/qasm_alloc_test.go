package circuit_test

import (
	"math/rand"
	"runtime/debug"
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

// The codec's allocations are pinned, whatever the gate count: ParseQASM
// makes the circuit, its gate slice, the register table (a map and its
// table) and one backing array each for the gates' qubits and parameters;
// WriteQASM makes one buffer.
func TestQASMCodecAllocs(t *testing.T) {
	const parseAllocs = 6
	// A collection empties the pool of the parser's argument scratch, and
	// the next parse would count the scratch's regrowth.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range eagleSuite(t) {
		src := c.WriteQASM()
		// The race detector makes sync.Pool drop items at random.
		if parse := testing.AllocsPerRun(2, func() { _, _ = circuit.ParseQASM(src) }); parse > parseAllocs && !raceEnabled {
			t.Errorf("ParseQASM of %d gates: %v allocs, want at most %d", len(c.Gates), parse, parseAllocs)
		}
		if write := testing.AllocsPerRun(2, func() { _ = c.WriteQASM() }); write > 1 {
			t.Errorf("WriteQASM of %d gates: %v allocs, want 1", len(c.Gates), write)
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

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

// qasmBenchInputs are the codec benchmarks' inputs: the ibm-eagle suite,
// whose angles mostly repeat within a circuit, and one random 1,000-gate
// ibm-eagle circuit, whose angles never do.
func qasmBenchInputs(b *testing.B) []struct {
	name string
	cs   []*circuit.Circuit
} {
	random := circuit.Random(16, 1000, gateset.IBMEagle.Gates, rand.New(rand.NewSource(1)))
	return []struct {
		name string
		cs   []*circuit.Circuit
	}{{"suite", eagleSuite(b)}, {"random1000", []*circuit.Circuit{random}}}
}

// BenchmarkParseQASM parses WriteQASM's text of each input.
func BenchmarkParseQASM(b *testing.B) {
	for _, in := range qasmBenchInputs(b) {
		cs := in.cs
		b.Run(in.name, func(b *testing.B) {
			srcs := make([]string, len(cs))
			gates := 0
			for i, c := range cs {
				srcs[i] = c.WriteQASM()
				gates += len(c.Gates)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					if _, err := circuit.ParseQASM(src); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(gates), "gates/op")
		})
	}
}

// BenchmarkWriteQASM writes each input.
func BenchmarkWriteQASM(b *testing.B) {
	for _, in := range qasmBenchInputs(b) {
		cs := in.cs
		b.Run(in.name, func(b *testing.B) {
			gates := 0
			for _, c := range cs {
				gates += len(c.Gates)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cs {
					qasmSink = c.WriteQASM()
				}
			}
			b.ReportMetric(float64(gates), "gates/op")
		})
	}
}
