package circuit_test

import (
	"strings"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
)

// roundTripSeeds seed FuzzQASMRoundTrip and FuzzParseQASMMatchesReference.
var roundTripSeeds = []string{
	"",
	"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
	"qreg q[3];\nrz(pi/4) q[0];\nt q[1];\ntdg q[2];\ncx q[2],q[0];\n",
	"qreg a[2];\nqreg b[1];\ncreg c[2];\nu3(pi/2,0,pi) a[0];\ncx a[1],b[0];\nmeasure a[0] -> c[0];\n",
	"qreg q[2];\n// comment\nx q[0]; barrier q[0]; cnot q[0],q[1];\n",
	"qreg q[1];\nrz(-3*pi/2+0.5) q[0];\nu1(1e-9) q[0];\n",
	"qreg q[2];\nrxx(pi/2) q[0],q[1];\n",
	"qreg q[1];\nrz(1e308*10) q[0];\n",       // overflow to +Inf must be rejected
	"qreg q[2];\nh q[5];\n",                  // out-of-range index must error, not panic
	"qreg q[2];\nh q[-1];\n",                 // negative index must error
	"qreg q[2];\ncx q[0],q[0];\n",            // repeated qubit arg must error
	"qreg q[1];\nrz((pi)/(0)) q[0];\n",       // division by zero must error
	"qreg q[1];\nqreg q[1];\nh q[0];\n",      // duplicate register must error
	"h q[0];\nqreg q[1];\n",                  // qreg after gates must error
	"qreg q[1];\nbogus q[0];\n",              // unknown gate must error
	"qreg q[2];\ns q[0];sdg q[1];sx q[0];\n", // ; separated on one line
}

// parseFragments seed FuzzParseQASMNoPanic; fragmentProgram wraps one in a
// program.
var parseFragments = []string{
	"rz(((pi))) q[0]",
	"u3(1,2,3) q[0]",
	"rz(1e) q[0]",
	"rz(--+-pi) q[0]",
	"rz(pi pi) q[0]",
	"cx q [ 0 ] , q [ 1 ]",
	"rz() q[0]",
	"h q[0x1]",
	"h q[0",
}

func fragmentProgram(frag string) string {
	return "qreg q[4];\n" + strings.ReplaceAll(frag, ";", "\n") + ";\n"
}

// FuzzQASMRoundTrip asserts the parser/writer pair is safe and stable on
// arbitrary input: ParseQASM never panics, and any program it accepts
// emits QASM that reparses to the same circuit (the second emit is
// byte-identical — emission is a fixpoint of parse∘emit).
func FuzzQASMRoundTrip(f *testing.F) {
	for _, s := range roundTripSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := circuit.ParseQASM(src)
		if err != nil {
			return
		}
		// Everything the parser accepts must be a well-formed circuit:
		// in-range distinct qubits, finite params. BuildDAG exercises the
		// wire structures that out-of-range gates would corrupt.
		for _, g := range c.Gates {
			for _, q := range g.Qubits {
				if q < 0 || q >= c.NumQubits {
					t.Fatalf("accepted out-of-range qubit %d (n=%d) in %q", q, c.NumQubits, src)
				}
			}
		}
		circuit.BuildDAG(c)
		q1 := c.WriteQASM()
		c2, err := circuit.ParseQASM(q1)
		if err != nil {
			t.Fatalf("emitted QASM does not reparse: %v\ninput: %q\nemitted:\n%s", err, src, q1)
		}
		if q2 := c2.WriteQASM(); q2 != q1 {
			t.Fatalf("emit is not a parse fixpoint\nfirst:\n%s\nsecond:\n%s", q1, q2)
		}
		if c2.NumQubits != c.NumQubits || len(c2.Gates) != len(c.Gates) {
			t.Fatalf("reparse changed shape: %d/%d qubits, %d/%d gates",
				c.NumQubits, c2.NumQubits, len(c.Gates), len(c2.Gates))
		}
	})
}

// FuzzParseQASMNoPanic hammers the statement splitter and expression
// parser with raw fragments wrapped in a valid prologue, probing paths a
// whole-program fuzzer reaches rarely.
func FuzzParseQASMNoPanic(f *testing.F) {
	for _, s := range parseFragments {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frag string) {
		_, _ = circuit.ParseQASM(fragmentProgram(frag))
	})
}
