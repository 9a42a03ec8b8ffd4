package opt

import (
	"fmt"
	"time"

	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/rewrite"
	"github.com/guoq-dev/guoq/internal/synth"
	"github.com/guoq-dev/guoq/internal/synth/finite"
	"github.com/guoq-dev/guoq/internal/synth/numeric"
)

// InstantiateOptions tunes the construction of a transformation set.
type InstantiateOptions struct {
	// EpsilonF is the global error budget; the resynthesis transformation's
	// declared per-application ε is EpsilonF/100 (admission classes; the
	// loop accumulates achieved error, which is usually far smaller).
	EpsilonF float64
	// MaxQubits limits resynthesis subcircuit width (3 in the paper).
	MaxQubits int
	// SynthTime bounds one synthesis call.
	SynthTime time.Duration
	// WithPhaseFold includes the global phase-folding τ_0 (used in the
	// FTQC instantiation; the NISQ one relies on rules + fusion).
	WithPhaseFold bool
}

// Instantiate builds the paper's GUOQ transformation set for a gate set
// (§6, "Instantiation of guoq"): the QUESO-style rule library, the cleanup
// and 1q-fusion τ_0 passes, and a resynthesis τ_ε — numeric (BQSKit-style)
// for continuous sets, finite-set search (Synthetiq-style) for Clifford+T.
//
// Custom gate sets instantiate too: a set without a built-in rule
// library runs on the τ_0 passes plus resynthesis, and a
// finite custom set whose basis cannot carry the Clifford+T synthesizer's
// output skips built-in resynthesis (supply a CircuitSynthesizer through
// the registry instead).
func Instantiate(gs *gateset.GateSet, io InstantiateOptions) ([]Transformation, error) {
	if io.EpsilonF <= 0 {
		io.EpsilonF = 1e-8
	}
	if io.MaxQubits == 0 {
		io.MaxQubits = 3
	}
	rules, err := rewrite.RulesFor(gs.Name)
	if err != nil {
		if gs.Builtin() {
			return nil, fmt.Errorf("opt: instantiate: %w", err)
		}
		rules = nil // custom set without a rule library: τ_0 passes + resynthesis only
	}
	ts := []Transformation{&CleanupTransformation{GateSet: gs}}
	for _, r := range rules {
		ts = append(ts, &RuleTransformation{Rule: r})
	}
	var syn synth.Synthesizer
	if gs.Continuous() {
		ts = append(ts, &FuseTransformation{GateSet: gs})
		ns := numeric.New(gs)
		if io.SynthTime > 0 {
			ns.MaxTime = io.SynthTime
		}
		syn = ns
	} else if carriesCliffordT(gs) {
		fs := finite.New()
		if io.SynthTime > 0 {
			fs.MaxTime = io.SynthTime
		}
		syn = fs
	}
	if io.WithPhaseFold {
		ts = append(ts, &PhaseFoldTransformation{GateSet: gs})
	}
	if syn == nil {
		return ts, nil
	}
	// Resynthesis at three declared ε classes (§4: a set of τ_ε with
	// different ε). The coarse class admits aggressive approximations while
	// budget remains; the fine classes keep resynthesis usable as the
	// accumulated error approaches ε_f. The loop charges achieved error, so
	// exact syntheses do not consume budget regardless of class.
	for _, div := range []float64{1, 4, 16} {
		ts = append(ts, &ResynthTransformation{
			Synth:       syn,
			MaxQubits:   io.MaxQubits,
			DeclaredEps: io.EpsilonF / div,
		})
	}
	return ts, nil
}

// carriesCliffordT reports whether the finite synthesizer's output
// vocabulary ({h, x, s, s†, t, t†, cx}) is native to the set, which is what
// built-in finite resynthesis needs to splice its results back legally.
func carriesCliffordT(gs *gateset.GateSet) bool {
	for _, n := range gateset.CliffordT.Gates {
		if !gs.Contains(n) {
			return false
		}
	}
	return true
}

// FilterFast returns only the ε = 0 fast transformations (GUOQ-REWRITE).
func FilterFast(ts []Transformation) []Transformation {
	var out []Transformation
	for _, t := range ts {
		if !t.Slow() {
			out = append(out, t)
		}
	}
	return out
}

// FilterSlow returns only the resynthesis transformations (GUOQ-RESYNTH).
func FilterSlow(ts []Transformation) []Transformation {
	var out []Transformation
	for _, t := range ts {
		if t.Slow() {
			out = append(out, t)
		}
	}
	return out
}
