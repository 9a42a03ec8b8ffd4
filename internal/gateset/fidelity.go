package gateset

import (
	"math"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
)

// FidelityModel estimates circuit success probability as the product of
// per-gate fidelities (§6, Metrics): fidelity(C) = Π_g (1 − err(g)).
//
// The paper uses device calibration data (IBM Washington for the IBM sets,
// IonQ Forte for ionq). Real calibration tables are per-qubit-pair; the
// dominant effect for optimizer comparison is the order-of-magnitude gap
// between one- and two-qubit error rates, so the model is a synthetic
// calibration with the published magnitudes. See DESIGN.md §3.
type FidelityModel struct {
	Name string
	// OneQubitError and TwoQubitError are the mean gate error rates.
	OneQubitError float64
	TwoQubitError float64
	// PerQubitSpread adds deterministic per-qubit variation of ±spread
	// (relative), emulating the non-uniformity of real calibration data.
	PerQubitSpread float64
	// GateErrors overrides the error rate per gate name exactly (no
	// per-qubit spread), for custom gate sets with calibrated weights.
	GateErrors map[gate.Name]float64
}

// Device models with published error-rate magnitudes.
var (
	// IBMWashington mirrors ibmq_washington-era calibration: median CX
	// error ≈ 8·10⁻³ (orders of magnitude above 1q error ≈ 2.5·10⁻⁴).
	IBMWashington = FidelityModel{
		Name:           "ibm-washington",
		OneQubitError:  2.5e-4,
		TwoQubitError:  8e-3,
		PerQubitSpread: 0.3,
	}
	// IonQForte mirrors IonQ Forte: 2q error ≈ 4·10⁻³, 1q ≈ 2·10⁻⁴.
	IonQForte = FidelityModel{
		Name:           "ionq-forte",
		OneQubitError:  2e-4,
		TwoQubitError:  4e-3,
		PerQubitSpread: 0.2,
	}
)

// ModelFor returns the fidelity model paired with a gate set: the paper's
// device model for its architecture (IonQ Forte for ion traps, IBM
// Washington otherwise), overridden by the set's own weights (GateErrors,
// OneQubitError, TwoQubitError) when given.
func ModelFor(gs *GateSet) FidelityModel {
	base := IBMWashington
	if gs.Architecture == IonQ.Architecture {
		base = IonQForte
	}
	if gs.GateErrors == nil && gs.OneQubitError == 0 && gs.TwoQubitError == 0 {
		return base
	}
	m := base
	m.Name = gs.Name
	// Custom weights are calibration data, not magnitudes to emulate around:
	// drop the synthetic per-qubit spread so the model is exactly what the
	// caller specified.
	m.PerQubitSpread = 0
	if gs.OneQubitError > 0 {
		m.OneQubitError = gs.OneQubitError
	}
	if gs.TwoQubitError > 0 {
		m.TwoQubitError = gs.TwoQubitError
	}
	if gs.GateErrors != nil {
		m.GateErrors = gs.GateErrors
	}
	return m
}

// gateError returns the error rate for a gate acting on the given qubits.
// The per-qubit spread is a deterministic pseudo-random factor so that the
// same device model always yields the same calibration table.
func (m FidelityModel) gateError(name gate.Name, qubits []int, arity int) float64 {
	if e, ok := m.GateErrors[name]; ok {
		return e
	}
	base := m.OneQubitError
	if arity >= 2 {
		base = m.TwoQubitError
	}
	if m.PerQubitSpread == 0 {
		return base
	}
	// Simple deterministic hash of the qubit tuple into [−1, 1].
	h := uint64(2166136261)
	for _, q := range qubits {
		h = (h ^ uint64(q+1)) * 16777619
	}
	u := float64(h%10007)/10007*2 - 1
	return base * (1 + m.PerQubitSpread*u)
}

// CircuitFidelity returns Π_g (1 − err(g)).
func (m FidelityModel) CircuitFidelity(c *circuit.Circuit) float64 {
	// Accumulate in log space for numerical stability on 10⁵-gate circuits.
	var logF float64
	for _, g := range c.Gates {
		logF += math.Log1p(-m.gateError(g.Name, g.Qubits, len(g.Qubits)))
	}
	return math.Exp(logF)
}

// LogFidelity returns log fidelity; maximizing it is equivalent to
// maximizing fidelity and is cheaper to use as an optimization cost.
func (m FidelityModel) LogFidelity(c *circuit.Circuit) float64 {
	var logF float64
	for _, g := range c.Gates {
		logF += math.Log1p(-m.gateError(g.Name, g.Qubits, len(g.Qubits)))
	}
	return logF
}
