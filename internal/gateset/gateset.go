// Package gateset defines target gate sets — the five evaluation sets of
// Table 2 plus a registry of caller-defined targets — the translation
// (decomposition) of arbitrary circuits into each set, and the device
// fidelity models used by the paper's NISQ metrics.
package gateset

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
)

// GateSet is a named target gate vocabulary plus architecture metadata.
// The five sets of Table 2 are predeclared; additional targets are built
// with New and made name-addressable with Register.
type GateSet struct {
	Name         string
	Gates        []gate.Name
	Architecture string

	// Decompose, when set, lowers a non-native gate into a (shorter or
	// equal-unitary) sequence that is translated recursively. It is
	// consulted before the built-in lowerings, so a custom set can override
	// any decomposition; returning ok = false falls through to the built-in
	// paths. The emitted sequence must implement the same unitary as g up
	// to global phase and must make progress (it may not emit g itself).
	Decompose func(g gate.Gate) ([]gate.Gate, bool)

	// GateErrors, OneQubitError, and TwoQubitError customize the fidelity
	// model ModelFor builds for this set: GateErrors overrides the error
	// rate per gate name, the scalar fields override the per-arity
	// defaults. All zero selects the paper's device model for the
	// architecture (IBM Washington, or IonQ Forte for ion traps).
	GateErrors    map[gate.Name]float64
	OneQubitError float64
	TwoQubitError float64

	set     map[gate.Name]bool
	builtin bool

	// The set's single-qubit capabilities, resolved from the basis once
	// when the set is built: every lowering and z-phase emission reads
	// them, and none reads the set's name.
	z      gate.Name // the continuous z-rotation: rz, else u1, else ""
	ladder bool      // s, sdg, t and tdg: z-rotations by multiples of π/4
	euler  euler     // how a general single-qubit unitary is factored
}

func newGateSet(name, arch string, gates ...gate.Name) *GateSet {
	s := build(name, arch, gates)
	s.builtin = true
	return s
}

// build indexes the basis and resolves the set's capabilities.
func build(name, arch string, gates []gate.Name) *GateSet {
	s := &GateSet{Name: name, Gates: gates, Architecture: arch, set: map[gate.Name]bool{}}
	for _, g := range gates {
		s.set[g] = true
	}
	switch {
	case s.set[gate.Rz]:
		s.z = gate.Rz
	case s.set[gate.U1]:
		s.z = gate.U1
	}
	s.ladder = s.set[gate.S] && s.set[gate.Sdg] && s.set[gate.T] && s.set[gate.Tdg]
	s.euler = eulerFor(s)
	return s
}

// New builds a caller-defined gate set, validating that every basis gate is
// part of the supported vocabulary. The result is usable directly (pass it
// where a *GateSet is accepted) or via Register for name lookup.
func New(name, arch string, gates ...gate.Name) (*GateSet, error) {
	if name == "" {
		return nil, fmt.Errorf("gateset: empty gate set name")
	}
	if len(gates) == 0 {
		return nil, fmt.Errorf("gateset: gate set %q has an empty basis", name)
	}
	for _, g := range gates {
		if _, ok := gate.SpecOf(g); !ok {
			return nil, fmt.Errorf("gateset: gate set %q: unknown gate %q", name, g)
		}
	}
	return build(name, arch, gates), nil
}

// The five gate sets of Table 2.
var (
	// IBMQ20: U1, U2, U3, CX (superconducting).
	IBMQ20 = newGateSet("ibmq20", "superconducting", gate.U1, gate.U2, gate.U3, gate.CX)
	// IBMEagle: Rz, SX, X, CX (superconducting).
	IBMEagle = newGateSet("ibm-eagle", "superconducting", gate.Rz, gate.SX, gate.X, gate.CX)
	// IonQ: Rx, Ry, Rz, Rxx (trapped ion).
	IonQ = newGateSet("ionq", "ion trap", gate.Rx, gate.Ry, gate.Rz, gate.Rxx)
	// Nam: Rz, H, X, CX (hardware-agnostic; studied by Nam et al.).
	Nam = newGateSet("nam", "none", gate.Rz, gate.H, gate.X, gate.CX)
	// CliffordT: T, T†, S, S†, H, X, CX (fault tolerant).
	CliffordT = newGateSet("cliffordt", "fault tolerant",
		gate.T, gate.Tdg, gate.S, gate.Sdg, gate.H, gate.X, gate.CX)
)

// registry holds caller-registered gate sets, keyed by name. Builtins are
// not stored here; lookup checks them first so they cannot be shadowed.
var registry = struct {
	sync.RWMutex
	m map[string]*GateSet
}{m: map[string]*GateSet{}}

// Register makes a gate set addressable by name through ByName. Built-in
// names cannot be replaced; re-registering the same description (same
// basis, architecture, weights, and hook) is a no-op, any other collision
// is an error (so tests and plugins fail loudly instead of silently
// shadowing each other).
func Register(gs *GateSet) error {
	if gs == nil || gs.Name == "" {
		return fmt.Errorf("gateset: cannot register a nil or unnamed gate set")
	}
	if gs.set == nil {
		return fmt.Errorf("gateset: gate set %q was not built with gateset.New", gs.Name)
	}
	for _, b := range All() {
		if b.Name == gs.Name {
			return fmt.Errorf("gateset: %q is a built-in gate set", gs.Name)
		}
	}
	registry.Lock()
	defer registry.Unlock()
	if prev, ok := registry.m[gs.Name]; ok && !sameDescription(prev, gs) {
		return fmt.Errorf("gateset: gate set %q is already registered with a different description", gs.Name)
	}
	registry.m[gs.Name] = gs
	return nil
}

// sameDescription reports whether two gate sets describe the same target:
// equal name, basis (in order), architecture, error weights, and Decompose
// hook (same function, or both absent).
func sameDescription(a, b *GateSet) bool {
	if a == b {
		return true
	}
	if a.Name != b.Name || a.Architecture != b.Architecture ||
		a.OneQubitError != b.OneQubitError || a.TwoQubitError != b.TwoQubitError ||
		len(a.Gates) != len(b.Gates) || len(a.GateErrors) != len(b.GateErrors) {
		return false
	}
	for i := range a.Gates {
		if a.Gates[i] != b.Gates[i] {
			return false
		}
	}
	for n, e := range a.GateErrors {
		if be, ok := b.GateErrors[n]; !ok || be != e {
			return false
		}
	}
	if (a.Decompose == nil) != (b.Decompose == nil) {
		return false
	}
	if a.Decompose != nil &&
		reflect.ValueOf(a.Decompose).Pointer() != reflect.ValueOf(b.Decompose).Pointer() {
		return false
	}
	return true
}

// Unregister removes a registered gate set (tests and reloadable configs);
// built-ins are unaffected.
func Unregister(name string) {
	registry.Lock()
	defer registry.Unlock()
	delete(registry.m, name)
}

// All lists the five gate sets in the paper's Table 2 order.
func All() []*GateSet {
	return []*GateSet{IBMQ20, IBMEagle, IonQ, Nam, CliffordT}
}

// Names lists every addressable gate set: the built-ins in Table 2 order,
// then registered sets sorted by name.
func Names() []string {
	out := make([]string, 0, 8)
	for _, gs := range All() {
		out = append(out, gs.Name)
	}
	registry.RLock()
	custom := make([]string, 0, len(registry.m))
	for name := range registry.m {
		custom = append(custom, name)
	}
	registry.RUnlock()
	sort.Strings(custom)
	return append(out, custom...)
}

// ByName looks a gate set up by its name: built-ins first, then the
// registry of caller-defined sets.
func ByName(name string) (*GateSet, error) {
	for _, gs := range All() {
		if gs.Name == name {
			return gs, nil
		}
	}
	registry.RLock()
	gs, ok := registry.m[name]
	registry.RUnlock()
	if ok {
		return gs, nil
	}
	return nil, fmt.Errorf("gateset: unknown gate set %q (known: %v)", name, Names())
}

// Builtin reports whether the set is one of the paper's five evaluation
// sets. Built-ins carry curated rule libraries; translation and the τ₀
// passes treat every set alike, by its basis.
func (gs *GateSet) Builtin() bool { return gs.builtin }

// Contains reports whether the named gate is native to the set.
func (gs *GateSet) Contains(n gate.Name) bool { return gs.set[n] }

// IsNative reports whether every gate in the circuit is native to the set.
func (gs *GateSet) IsNative(c *circuit.Circuit) bool {
	for _, g := range c.Gates {
		if !gs.set[g.Name] {
			return false
		}
	}
	return true
}

// Continuous reports whether the set contains continuously parameterized
// gates. Numeric resynthesis applies only to continuous sets; finite sets
// use search-based synthesis (Q4).
func (gs *GateSet) Continuous() bool {
	for _, g := range gs.Gates {
		if s, _ := gate.SpecOf(g); s.Params > 0 {
			return true
		}
	}
	return false
}

func (gs *GateSet) String() string { return gs.Name }
