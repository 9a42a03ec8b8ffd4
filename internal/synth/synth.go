// Package synth defines the unitary synthesis interface shared by the
// numeric (continuous gate sets, BQSKit-style) and finite (Clifford+T,
// Synthetiq-style) synthesizers. The resynthesis transformations of
// internal/opt wrap a synthesizer into a circuit transformation (§4.1),
// calling it through SynthesizeBounded with the replaced block's
// two-qubit count as the ceiling: a synthesizer that implements
// BoundedSynthesizer (the numeric one) then never proposes a block with
// more two-qubit gates than the one it would replace.
package synth

import (
	"context"
	"errors"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// ErrNoSolution is returned when a synthesizer cannot find a circuit within
// the requested tolerance and budget. Resynthesis transformations treat it
// as "keep the original subcircuit".
var ErrNoSolution = errors.New("synth: no solution within tolerance and budget")

// Synthesizer produces a circuit implementing a target unitary within eps
// Hilbert–Schmidt distance (Def. 3.2), minimizing the caller's cost notion
// (primarily two-qubit / T gates).
type Synthesizer interface {
	// Synthesize returns a circuit on numQubits qubits with
	// Δ(U_circuit, target) ≤ eps, or ErrNoSolution.
	Synthesize(target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error)
	// Name identifies the synthesizer in logs and experiment output.
	Name() string
}

// ContextSynthesizer is a Synthesizer whose search observes context
// cancellation: SynthesizeContext returns (typically with ErrNoSolution or
// the context's error) as soon as it notices ctx is done, instead of
// running to its own MaxTime deadline. Both built-in synthesizers
// implement it; the optimizer's cancellation path uses it so stopping a
// search never drains a full synthesis deadline.
type ContextSynthesizer interface {
	Synthesizer
	SynthesizeContext(ctx context.Context, target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error)
}

// BoundedSynthesizer is a Synthesizer that takes a two-qubit ceiling:
// SynthesizeBounded returns a circuit with at most maxTwoQubit two-qubit
// gates, or ErrNoSolution as soon as it finds that none fits, and observes
// ctx like SynthesizeContext. The numeric synthesizer implements it; the
// finite one does not (its cost is the T count).
type BoundedSynthesizer interface {
	Synthesizer
	SynthesizeBounded(ctx context.Context, target linalg.Matrix, numQubits int, eps float64, maxTwoQubit int) (*circuit.Circuit, error)
}

// SynthesizeBounded invokes s with the two-qubit ceiling maxTwoQubit when
// it is a BoundedSynthesizer. Otherwise it runs s under ctx when s supports
// cancellation, or calls the blocking Synthesize, and the result may have
// more two-qubit gates than the ceiling.
func SynthesizeBounded(ctx context.Context, s Synthesizer, target linalg.Matrix, numQubits int, eps float64, maxTwoQubit int) (*circuit.Circuit, error) {
	switch s := s.(type) {
	case BoundedSynthesizer:
		return s.SynthesizeBounded(ctx, target, numQubits, eps, maxTwoQubit)
	case ContextSynthesizer:
		return s.SynthesizeContext(ctx, target, numQubits, eps)
	}
	return s.Synthesize(target, numQubits, eps)
}
