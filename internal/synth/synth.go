// Package synth defines the unitary synthesis interface shared by the
// numeric (continuous gate sets, BQSKit-style) and finite (Clifford+T,
// Synthetiq-style) synthesizers. The resynthesis transformations of
// internal/opt wrap a synthesizer into a circuit transformation (§4.1).
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

// SynthesizeContext invokes s under ctx when it supports cancellation,
// degrading to the blocking Synthesize otherwise. A nil or Background ctx
// is equivalent to calling Synthesize directly.
func SynthesizeContext(ctx context.Context, s Synthesizer, target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	if cs, ok := s.(ContextSynthesizer); ok && ctx != nil {
		return cs.SynthesizeContext(ctx, target, numQubits, eps)
	}
	return s.Synthesize(target, numQubits, eps)
}
