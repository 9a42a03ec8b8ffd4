package guoq

import (
	"encoding/json"
	"fmt"

	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// GateSet describes a target gate vocabulary — the public value type behind
// Options.Target and RegisterGateSet. The paper's five evaluation sets are
// built in; a GateSet lets callers optimize for any other hardware basis:
//
//	czSet := &guoq.GateSet{
//		Name:         "cz-superconducting",
//		Architecture: "superconducting",
//		Basis:        []string{"rz", "sx", "x", "cz"},
//	}
//	guoq.RegisterGateSet(czSet)                  // addressable by name, or
//	sess, _ := guoq.Start(ctx, c, guoq.Options{Target: czSet}) // pass directly
//
// Translation uses capability detection over the basis, as it does for
// the built-ins (any universal continuous 1q vocabulary we know an Euler
// factorization for, CZ- or Rxx-style entanglers for CX, the Clifford+T
// vocabulary for finite sets); bases beyond those capabilities supply a
// Decompose hook.
type GateSet struct {
	// Name identifies the set (Options.Target accepts it once registered).
	// Required, and distinct from the built-in names.
	Name string
	// Basis lists the native gates in OpenQASM-style lower case ("rz",
	// "sx", "cz", ...); see the package-level gate constructors for the
	// supported vocabulary. Required.
	Basis []string
	// Architecture is free-form metadata ("superconducting", "ion trap",
	// ...); "ion trap" selects the ion-trap device fidelity model.
	Architecture string
	// Decompose, when set, lowers a non-native gate into an equivalent
	// sequence (translated recursively). It is consulted before the
	// built-in lowerings, so it can override any of them; return ok =
	// false to fall through. The sequence must reproduce g's unitary up to
	// global phase and must not re-emit g itself.
	Decompose func(g Gate) ([]Gate, bool)
	// GateErrors gives per-gate error rates for the fidelity model (exact,
	// no synthetic per-qubit spread); OneQubitError and TwoQubitError
	// override the per-arity defaults. All zero selects the architecture's
	// default device model.
	GateErrors    map[string]float64
	OneQubitError float64
	TwoQubitError float64
}

// compile validates the public description and lowers it to the internal
// representation the optimizer stack consumes.
func (gs *GateSet) compile() (*gateset.GateSet, error) {
	if gs == nil {
		return nil, fmt.Errorf("guoq: nil GateSet")
	}
	// Built-in names are reserved even for unregistered ad-hoc targets.
	// Rule libraries are the only machinery keyed by a gate set's name:
	// under a built-in's name, a different basis would silently get that
	// set's rules.
	for _, b := range gateset.All() {
		if b.Name == gs.Name {
			return nil, fmt.Errorf("guoq: gate set name %q is reserved for the built-in set", gs.Name)
		}
	}
	names := make([]gate.Name, len(gs.Basis))
	for i, b := range gs.Basis {
		names[i] = gate.Name(b)
	}
	igs, err := gateset.New(gs.Name, gs.Architecture, names...)
	if err != nil {
		return nil, err
	}
	igs.Decompose = gs.Decompose
	if len(gs.GateErrors) > 0 {
		igs.GateErrors = make(map[gate.Name]float64, len(gs.GateErrors))
		for n, e := range gs.GateErrors {
			if _, ok := gate.SpecOf(gate.Name(n)); !ok {
				return nil, fmt.Errorf("guoq: gate set %q: unknown gate %q in GateErrors", gs.Name, n)
			}
			if e < 0 || e >= 1 {
				return nil, fmt.Errorf("guoq: gate set %q: error rate for %q must be in [0, 1), got %g", gs.Name, n, e)
			}
			igs.GateErrors[gate.Name(n)] = e
		}
	}
	if gs.OneQubitError < 0 || gs.OneQubitError >= 1 || gs.TwoQubitError < 0 || gs.TwoQubitError >= 1 {
		return nil, fmt.Errorf("guoq: gate set %q: error rates must be in [0, 1)", gs.Name)
	}
	igs.OneQubitError = gs.OneQubitError
	igs.TwoQubitError = gs.TwoQubitError
	return igs, nil
}

// Translate decomposes a circuit into this gate set, preserving the
// unitary up to global phase — the per-target form of the package-level
// Translate, usable without registering the set.
func (gs *GateSet) Translate(c *Circuit) (*Circuit, error) {
	igs, err := gs.compile()
	if err != nil {
		return nil, err
	}
	return gateset.Translate(c, igs)
}

// RegisterGateSet makes a custom gate set addressable by name everywhere a
// gate set name is accepted: Options.GateSet and Options.Target, Translate,
// EstimateFidelity, and the CLIs. Built-in names cannot be replaced, and a
// second registration under the same name (other than re-registering the
// exact same description) is an error. Registration snapshots the
// description — later mutation of gs does not affect the registered set.
func RegisterGateSet(gs *GateSet) error {
	igs, err := gs.compile()
	if err != nil {
		return err
	}
	return gateset.Register(igs)
}

// LookupGateSet returns the public description of an addressable gate set
// — built-in or registered — for display and introspection (guoq
// -list-gatesets). The description is a copy; Decompose hooks are not
// included.
func LookupGateSet(name string) (*GateSet, error) {
	igs, err := gateset.ByName(name)
	if err != nil {
		return nil, err
	}
	out := &GateSet{
		Name:          igs.Name,
		Architecture:  igs.Architecture,
		Basis:         make([]string, len(igs.Gates)),
		OneQubitError: igs.OneQubitError,
		TwoQubitError: igs.TwoQubitError,
	}
	for i, g := range igs.Gates {
		out.Basis[i] = string(g)
	}
	if len(igs.GateErrors) > 0 {
		out.GateErrors = make(map[string]float64, len(igs.GateErrors))
		for n, e := range igs.GateErrors {
			out.GateErrors[string(n)] = e
		}
	}
	return out, nil
}

// gateSetSpec is the JSON wire form of a GateSet, for loading custom
// targets from configuration files (guoqbench -gateset-file).
type gateSetSpec struct {
	Name          string             `json:"name"`
	Architecture  string             `json:"architecture,omitempty"`
	Basis         []string           `json:"basis"`
	GateErrors    map[string]float64 `json:"gate_errors,omitempty"`
	OneQubitError float64            `json:"one_qubit_error,omitempty"`
	TwoQubitError float64            `json:"two_qubit_error,omitempty"`
}

// ParseGateSetJSON decodes a gate set description from JSON:
//
//	{"name": "cz-sc", "architecture": "superconducting",
//	 "basis": ["rz", "sx", "x", "cz"],
//	 "one_qubit_error": 2.5e-4, "two_qubit_error": 6e-3}
//
// The description is validated (known gates, sane error rates) before it is
// returned; Decompose hooks cannot be expressed in JSON — bases that need
// one must be constructed in code.
func ParseGateSetJSON(data []byte) (*GateSet, error) {
	var spec gateSetSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("guoq: bad gate set JSON: %w", err)
	}
	gs := &GateSet{
		Name:          spec.Name,
		Architecture:  spec.Architecture,
		Basis:         spec.Basis,
		GateErrors:    spec.GateErrors,
		OneQubitError: spec.OneQubitError,
		TwoQubitError: spec.TwoQubitError,
	}
	if _, err := gs.compile(); err != nil {
		return nil, err
	}
	return gs, nil
}

// resolveTarget maps Options' target selection — Options.Target as a name
// or *GateSet, or the legacy Options.GateSet name — to the internal set.
func resolveTarget(o Options) (*gateset.GateSet, error) {
	if o.Target == nil {
		if o.GateSet == "" {
			return nil, fmt.Errorf("guoq: Options.GateSet or Options.Target is required (known names: %v)", GateSets())
		}
		return gateset.ByName(o.GateSet)
	}
	if o.GateSet != "" {
		return nil, fmt.Errorf("guoq: Options.GateSet and Options.Target are mutually exclusive (set one)")
	}
	switch t := o.Target.(type) {
	case string:
		return gateset.ByName(t)
	case *GateSet:
		return t.compile()
	case GateSet:
		return t.compile()
	default:
		return nil, fmt.Errorf("guoq: Options.Target must be a gate set name or a *guoq.GateSet, got %T", o.Target)
	}
}
