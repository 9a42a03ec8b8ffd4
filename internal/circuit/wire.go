package circuit

import "fmt"

// Envelope is the wire form of a circuit together with the approximation
// error it has accumulated against its original — the unit of best-so-far
// exchange in the distributed optimizer (internal/dist). The circuit is
// carried as OpenQASM 2.0 text: WriteQASM renders parameters with 17
// significant digits, so Seal followed by Open reproduces the gate list
// bit-for-bit (see TestQASMRoundTripAllGateKinds), which makes the ε
// bookkeeping of Thm 4.2 exact across process boundaries.
type Envelope struct {
	// QASM is the circuit in the writer's OpenQASM 2.0 dialect.
	QASM string `json:"qasm"`
	// Err is the accumulated ε upper bound of the circuit relative to the
	// search's original input (0 for an exact solution).
	Err float64 `json:"err"`
}

// Seal packs a circuit and its accumulated error bound for the wire.
func Seal(c *Circuit, err float64) Envelope {
	return Envelope{QASM: c.WriteQASM(), Err: err}
}

// Open parses the enveloped circuit back, returning the circuit and its
// accumulated error bound.
func (e Envelope) Open() (*Circuit, float64, error) {
	c, err := ParseQASM(e.QASM)
	if err != nil {
		return nil, 0, fmt.Errorf("circuit: bad envelope: %w", err)
	}
	return c, e.Err, nil
}
