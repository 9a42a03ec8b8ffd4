package rewrite

import (
	"math"
	"sync"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// Fuse1QChanged is the analytic single-qubit fusion pass for continuous
// gate sets: every maximal run of consecutive single-qubit gates on a wire
// is multiplied into one 2×2 unitary and re-emitted in the target set's
// minimal native form (gateset.Translate of the fused u3, or of one
// z-rotation when the product is diagonal). The fused form replaces the
// run only when it is no longer than the original, so the pass never
// increases gate count.
//
// This plays the role of the nonlinear u-gate merge rules that symbolic
// patterns cannot express (their parameter algebra is not linear).
//
// It returns a change count covering both fusion events and the commuting
// reorders the per-wire buffering introduces (a buffered run is emitted
// after multi-qubit gates on other wires that arrived later than the run's
// gates). A zero count guarantees the output is structurally identical
// (circuit.Equal) to the input, which is then returned itself.
func Fuse1QChanged(c *circuit.Circuit, gs *gateset.GateSet) (*circuit.Circuit, int) {
	f := fusers.Get().(*fuser)
	if f.gs != gs {
		clear(f.memo)
		f.gs = gs
	}
	f.c, f.lastOrig, f.orderOK = c, -1, true
	for len(f.pending) < c.NumQubits {
		f.pending = append(f.pending, nil)
	}
	for i, g := range c.Gates {
		if len(g.Qubits) == 1 {
			q := g.Qubits[0]
			f.pending[q] = append(f.pending[q], i)
			continue
		}
		for _, q := range g.Qubits {
			f.flush(q)
		}
		f.emitOrig(i)
	}
	for q := 0; q < c.NumQubits; q++ {
		f.flush(q)
	}
	if !f.orderOK {
		f.changed++
	}
	out, changed := c, f.changed
	if changed > 0 {
		out = circuit.New(c.NumQubits)
		out.Gates = append(make([]gate.Gate, 0, len(f.out)), f.out...)
	}
	clear(f.out)
	f.out, f.c, f.changed = f.out[:0], nil, 0
	fusers.Put(f)
	return out, changed
}

// fusers recycles the pass's scratch. Each fuser memoizes emit1Q for the
// gate set it last ran against; it holds that set, so the pointer cannot
// be reused by another set while the memo lives.
var fusers = sync.Pool{New: func() any { return &fuser{memo: map[mat2Bits][]gate.Gate{}} }}

// fuseMemoCap bounds a fuser's memo. Runs that are already fused repeat
// from call to call, so a fixpoint circuit needs one entry per run.
const fuseMemoCap = 1024

// mat2Bits is a fused unitary's exact bit pattern, the memo key.
type mat2Bits [8]uint64

type fuser struct {
	gs   *gateset.GateSet
	memo map[mat2Bits][]gate.Gate // fused unitary -> emit1Q's gates on qubit 0

	c        *circuit.Circuit
	pending  [][]int // per qubit: the input indices of the buffered run
	out      []gate.Gate
	changed  int
	lastOrig int
	orderOK  bool
}

// emitOrig appends an unmodified input gate, tracking whether the output
// still visits input gates in their original order.
func (f *fuser) emitOrig(idx int) {
	f.out = append(f.out, f.c.Gates[idx])
	if idx < f.lastOrig {
		f.orderOK = false
	} else {
		f.lastOrig = idx
	}
}

// flush emits qubit q's buffered run: fused when the native form of its
// product is no longer and differs, unchanged otherwise.
//
//guoq:hotpath
func (f *fuser) flush(q int) {
	run := f.pending[q]
	f.pending[q] = run[:0]
	if len(run) == 0 {
		return
	}
	if len(run) == 1 {
		f.emitOrig(run[0])
		return
	}
	u := linalg.Mat2{1, 0, 0, 1}
	for _, i := range run {
		u = gate.Matrix2(f.c.Gates[i]).Mul(u)
	}
	fused := f.fused(u)
	if fused == nil || len(fused) > len(run) || f.reproduces(fused, run, q) {
		for _, i := range run {
			f.emitOrig(i)
		}
		return
	}
	f.changed++
	for _, g := range fused {
		ng := g.Clone()
		ng.Qubits[0] = q
		f.out = append(f.out, ng)
	}
}

// fused returns emit1Q(u) on qubit 0, memoized on u's bits.
func (f *fuser) fused(u linalg.Mat2) []gate.Gate {
	var key mat2Bits
	for i, z := range u {
		key[2*i], key[2*i+1] = math.Float64bits(real(z)), math.Float64bits(imag(z))
	}
	if gs, ok := f.memo[key]; ok {
		return gs
	}
	if len(f.memo) >= fuseMemoCap {
		clear(f.memo)
	}
	gs := emit1Q(u.Matrix(), 0, f.gs)
	f.memo[key] = gs
	return gs
}

// reproduces reports whether fused, moved to qubit q, equals the run's
// input gates one for one (the comparison circuit.Equal makes).
func (f *fuser) reproduces(fused []gate.Gate, run []int, q int) bool {
	if len(fused) != len(run) {
		return false
	}
	for k, g := range fused {
		h := f.c.Gates[run[k]]
		if g.Name != h.Name || len(h.Qubits) != 1 || h.Qubits[0] != q || len(g.Params) != len(h.Params) {
			return false
		}
		for j := range g.Params {
			if g.Params[j] != h.Params[j] {
				return false
			}
		}
	}
	return true
}

// emit1Q renders an arbitrary 2×2 unitary as a minimal native single-qubit
// sequence on qubit q, or nil when the set cannot represent it exactly
// (finite sets with non-π/4 angles).
func emit1Q(u linalg.Matrix, q int, gs *gateset.GateSet) []gate.Gate {
	tmp := circuit.New(1)
	th, ph, la, _ := linalg.U3Angles(u)
	if th < 1e-12 {
		// Diagonal unitary: emit as a plain z-rotation, which lowers to the
		// set's z-rotation instead of a full u3.
		tmp.Append(gate.NewRz(linalg.NormAngle(ph+la), 0))
	} else {
		tmp.Append(gate.NewU3(th, ph, la, 0))
	}
	native, err := gateset.Translate(tmp, gs)
	if err != nil {
		return nil
	}
	out := make([]gate.Gate, 0, len(native.Gates))
	for _, g := range native.Gates {
		ng := g.Clone()
		ng.Qubits[0] = q
		out = append(out, ng)
	}
	return out
}
