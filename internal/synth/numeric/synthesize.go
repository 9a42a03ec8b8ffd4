package numeric

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/rewrite"
	"github.com/guoq-dev/guoq/internal/synth"
)

// Synthesizer is the BQSKit-style bottom-up numeric synthesizer: structures
// are explored in increasing CX count (so the first success has minimal
// two-qubit cost), each instantiated by coordinate ascent. Output circuits
// are translated into the target gate set and cleaned.
type Synthesizer struct {
	// GateSet is the continuous target set for emitted circuits.
	GateSet *gateset.GateSet
	// Restarts and MaxSweeps bound the per-structure optimization effort.
	Restarts  int
	MaxSweeps int
	// MaxBlocks bounds the structure depth, in CX, of every search. It is
	// the two-qubit ceiling of Synthesize and SynthesizeContext;
	// SynthesizeBounded searches to the smaller of it and its own ceiling.
	MaxBlocks int
	// Beam is the number of structures kept per depth in 3-qubit search.
	Beam int
	// MaxTime bounds one Synthesize call; zero means unbounded. Resynthesis
	// is the "slow" transformation (§5.3), and the cap is its safety net
	// against starving the whole search: the structure space (MaxBlocks,
	// Beam, Restarts, MaxSweeps) ends most calls well before it.
	MaxTime time.Duration
}

// New returns a synthesizer with the default budgets. With them a 2-qubit
// call takes under a millisecond and a 3-qubit call 10–100 ms on one core
// of a 2-vCPU x86 VM; the longest 3-qubit calls are those that try every
// structure up to the ceiling and fail, so a resynthesis call, whose
// ceiling is the replaced block's two-qubit count, fails sooner the
// shallower the block. That is the "slow" timescale of the paper,
// compressed in proportion to our compressed search budgets.
func New(gs *gateset.GateSet) *Synthesizer {
	return &Synthesizer{
		GateSet:   gs,
		Restarts:  3,
		MaxSweeps: 600,
		MaxBlocks: 8,
		Beam:      2,
		MaxTime:   500 * time.Millisecond,
	}
}

// Name implements synth.Synthesizer.
func (s *Synthesizer) Name() string { return "numeric-" + s.GateSet.Name }

// Synthesize implements synth.Synthesizer: SynthesizeBounded with the
// ceiling MaxBlocks and no cancellation.
func (s *Synthesizer) Synthesize(target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	return s.SynthesizeBounded(context.Background(), target, numQubits, eps, s.MaxBlocks)
}

// SynthesizeContext implements synth.ContextSynthesizer: SynthesizeBounded
// with the ceiling MaxBlocks.
func (s *Synthesizer) SynthesizeContext(ctx context.Context, target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	return s.SynthesizeBounded(ctx, target, numQubits, eps, s.MaxBlocks)
}

// SynthesizeBounded implements synth.BoundedSynthesizer: the structure
// search stops at maxTwoQubit CX (or MaxBlocks, if smaller), so it returns
// ErrNoSolution as soon as no structure at or under the ceiling fits. Under
// the ceiling the search is the unbounded one, so a call returns what
// Synthesize would whenever that has at most maxTwoQubit two-qubit gates.
// The built-in sets lower one CX to one native two-qubit gate (cx, cz or
// rxx); the emitted count is checked all the same, for a Decompose hook
// that lowers cx into several.
//
// The search polls ctx between structure evaluations (and honours a ctx
// deadline earlier than MaxTime), so a cancelled caller gets ErrNoSolution
// within one coordinate-ascent evaluation instead of a full MaxTime drain.
func (s *Synthesizer) SynthesizeBounded(ctx context.Context, target linalg.Matrix, numQubits int, eps float64, maxTwoQubit int) (*circuit.Circuit, error) {
	if !s.GateSet.Continuous() {
		return nil, fmt.Errorf("numeric: gate set %s is not continuous", s.GateSet.Name)
	}
	if target.N != 1<<numQubits {
		return nil, fmt.Errorf("numeric: target dim %d for %d qubits", target.N, numQubits)
	}
	// Distances below ~1e-10 are at the numeric floor of the optimizer;
	// clamp so exact solutions are accepted.
	tol := math.Max(eps, 1e-10)

	var out *circuit.Circuit
	var err error
	switch numQubits {
	case 1:
		out, err = s.finish(one(target, numQubits))
	case 2, 3:
		tpl, params, dist := s.search(ctx, target, numQubits, tol, min(maxTwoQubit, s.MaxBlocks))
		if tpl == nil || dist > tol {
			return nil, synth.ErrNoSolution
		}
		out, err = s.finish(tpl.Instantiate(params), nil)
	default:
		return nil, fmt.Errorf("numeric: %d qubits exceeds the 3-qubit resynthesis limit", numQubits)
	}
	if err == nil && out.TwoQubitCount() > maxTwoQubit {
		return nil, synth.ErrNoSolution
	}
	return out, err
}

// one solves the single-qubit case analytically via Euler angles.
func one(target linalg.Matrix, n int) (*circuit.Circuit, error) {
	c := circuit.New(n)
	th, ph, la, _ := linalg.U3Angles(target)
	if th > 1e-12 || math.Abs(linalg.NormAngle(ph+la)) > 1e-12 {
		c.Append(gate.NewU3(th, ph, la, 0))
	}
	return c, nil
}

// search explores structures of at most maxCX CX in increasing CX count,
// so the first success carries the minimal two-qubit cost. For 2 qubits
// the structure space is a line (0..3 CX suffice by the KAK theorem); for 3
// qubits a beam over pair sequences, warm-starting each child from its
// parent's parameters.
func (s *Synthesizer) search(ctx context.Context, target linalg.Matrix, n int, tol float64, maxCX int) (*Template, []float64, float64) {
	var deadline time.Time
	if s.MaxTime > 0 {
		deadline = time.Now().Add(s.MaxTime)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	// expired reports whether the search must stop: the wall-clock deadline
	// passed or the context was cancelled. Polled between structure
	// evaluations — the granularity that bounds cancellation latency.
	expired := func() bool {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return true
		}
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	if expired() {
		return nil, nil, math.Inf(1)
	}
	type cand struct {
		pairs  [][2]int
		params []float64
		dist   float64
	}
	screenSweepsFor := func(nq int) int {
		if nq <= 2 {
			return 120
		}
		return 80
	}
	evaluate := func(pairs [][2]int, warm []float64) cand {
		tpl := NewTemplate(n, pairs)
		var inits [][]float64
		if warm != nil {
			// Parent params + zero angles for the appended block.
			w := make([]float64, tpl.NumParams())
			copy(w, warm)
			inits = append(inits, w)
		}
		params, dist := tpl.Optimize(target, inits, s.Restarts, screenSweepsFor(n), 1e-4, deadline)
		return cand{pairs: pairs, params: params, dist: dist}
	}

	// Two-stage evaluation: structures are screened at a loose tolerance
	// with few sweeps (enough to tell whether the structure can represent
	// the target), and only screening survivors are polished to the full
	// tolerance. Polishing is where the hundreds of sweeps go; screening
	// keeps the structure scan cheap.
	screenTol := math.Max(tol, 1e-3)
	polish := func(c cand) (cand, bool) {
		tpl := NewTemplate(n, c.pairs)
		params, dist := tpl.Optimize(target, [][]float64{c.params}, 1, s.MaxSweeps, tol, deadline)
		if dist <= tol {
			return cand{pairs: c.pairs, params: params, dist: dist}, true
		}
		return c, false
	}

	// Two-qubit fast path: the Makhlin invariants give the exact minimal CX
	// count, so jump straight to the right structure depth. Only valid for
	// near-exact tolerances — at loose ε a *shallower* structure may
	// approximate the target, which the incremental search below discovers.
	if n == 2 && tol < 1e-6 {
		k := MinCXCount(target)
		if k > maxCX {
			return nil, nil, math.Inf(1)
		}
		var structure [][2]int
		for i := 0; i < k; i++ {
			structure = append(structure, [2]int{0, 1})
		}
		// The depth is provably sufficient, so spend real restart effort
		// here: coordinate ascent can stall on individual starts.
		tpl := NewTemplate(n, structure)
		params, dist := tpl.Optimize(target, nil, 8, 200, screenTol, deadline)
		if dist <= screenTol {
			if pc, ok := polish(cand{pairs: structure, params: params, dist: dist}); ok {
				return NewTemplate(n, pc.pairs), pc.params, pc.dist
			}
		}
		// Fall through to the incremental search as a numeric safety net.
	}

	best := evaluate(nil, nil)
	if best.dist <= screenTol {
		if p, ok := polish(best); ok {
			return NewTemplate(n, p.pairs), p.params, p.dist
		}
	}
	beam := []cand{best}
	pairs := pairSets(n)
	// An expiry leaves the whole depth: Template.Optimize never polls ctx,
	// so one more child evaluated after it would run in full.
search:
	for depth := 1; depth <= maxCX; depth++ {
		var next []cand
		for _, b := range beam {
			for _, p := range pairs {
				ext := append(append([][2]int{}, b.pairs...), p)
				c := evaluate(ext, b.params)
				if c.dist <= screenTol {
					if pc, ok := polish(c); ok {
						return NewTemplate(n, pc.pairs), pc.params, pc.dist
					}
				}
				next = append(next, c)
				if expired() {
					break search
				}
			}
		}
		if len(next) == 0 {
			break
		}
		// Keep the Beam best structures for the next depth.
		sort.Slice(next, func(i, j int) bool { return next[i].dist < next[j].dist })
		if len(next) > s.Beam {
			next = next[:s.Beam]
		}
		beam = next
		if expired() {
			break
		}
	}
	if len(beam) > 0 {
		b := beam[0]
		return NewTemplate(n, b.pairs), b.params, b.dist
	}
	return nil, nil, math.Inf(1)
}

// finish translates the raw rz/ry/cx circuit into the target gate set and
// runs the cleanup pass.
func (s *Synthesizer) finish(c *circuit.Circuit, err error) (*circuit.Circuit, error) {
	if err != nil {
		return nil, err
	}
	native, terr := gateset.Translate(c, s.GateSet)
	if terr != nil {
		return nil, terr
	}
	out, _ := rewrite.CleanupChangedFor(native, s.GateSet)
	return out, nil
}

// hashMatrix derives a deterministic seed from the target's entries so that
// synthesizing the same unitary twice explores the same restarts.
func hashMatrix(m linalg.Matrix) int64 {
	var h uint64 = 14695981039346656037
	for _, v := range m.Data {
		h = (h ^ uint64(int64(real(v)*1e6))) * 1099511628211
		h = (h ^ uint64(int64(imag(v)*1e6))) * 1099511628211
	}
	return int64(h)
}
