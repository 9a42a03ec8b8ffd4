// Package finite implements Synthetiq-style synthesis for finite gate sets
// (Clifford+T): simulated annealing over gate sequences scored by
// Hilbert–Schmidt distance, plus an exact breadth-first search for
// single-qubit targets. As the paper observes in Q4, synthesis over finite
// sets is much harder than over continuous ones — the annealer succeeds on
// short/structured targets and reports ErrNoSolution otherwise, which is
// exactly the regime Fig. 13 documents (rewrite rules contribute more than
// resynthesis for Clifford+T).
package finite

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/rewrite"
	"github.com/guoq-dev/guoq/internal/synth"
)

// Synthesizer searches Clifford+T circuits matching a target unitary.
type Synthesizer struct {
	// MaxGates bounds candidate circuit length during annealing.
	MaxGates int
	// Iters is the annealing iteration budget per restart.
	Iters int
	// Restarts is the number of annealing restarts.
	Restarts int
	// BFSDepth bounds the exact single-qubit search.
	BFSDepth int
	// MaxTime bounds one Synthesize call; zero means unbounded.
	MaxTime time.Duration
	// Seed makes synthesis deterministic per target.
	Seed int64
}

// New returns a synthesizer with default budgets.
func New() *Synthesizer {
	return &Synthesizer{
		MaxGates: 24,
		Iters:    4000,
		Restarts: 3,
		BFSDepth: 12,
		MaxTime:  500 * time.Millisecond,
		Seed:     1,
	}
}

// Name implements synth.Synthesizer.
func (s *Synthesizer) Name() string { return "finite-cliffordt" }

// vocabulary of moves: every Clifford+T gate on every qubit / qubit pair.
func moves(n int) []gate.Gate {
	var out []gate.Gate
	for q := 0; q < n; q++ {
		for _, g := range []gate.Name{gate.H, gate.X, gate.S, gate.Sdg, gate.T, gate.Tdg} {
			out = append(out, gate.New(g, []int{q}, nil))
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				out = append(out, gate.NewCX(a, b))
			}
		}
	}
	return out
}

// Synthesize implements synth.Synthesizer.
func (s *Synthesizer) Synthesize(target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	return s.SynthesizeContext(context.Background(), target, numQubits, eps)
}

// SynthesizeContext implements synth.ContextSynthesizer: the BFS and the
// annealer poll ctx at the same cadence as their deadline checks, so a
// cancelled caller returns within a few search steps instead of draining a
// full MaxTime deadline.
func (s *Synthesizer) SynthesizeContext(ctx context.Context, target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	if target.N != 1<<numQubits {
		return nil, fmt.Errorf("finite: target dim %d for %d qubits", target.N, numQubits)
	}
	if numQubits > 3 {
		return nil, fmt.Errorf("finite: %d qubits exceeds the 3-qubit resynthesis limit", numQubits)
	}
	tol := math.Max(eps, 1e-9)
	if linalg.EqualUpToPhase(target, linalg.Identity(target.N), tol) {
		return circuit.New(numQubits), nil
	}
	if numQubits == 1 {
		if c, ok := s.bfs1q(ctx, target, tol); ok {
			return c, nil
		}
		return nil, synth.ErrNoSolution
	}
	if c, ok := s.anneal(ctx, target, numQubits, tol); ok {
		return c, nil
	}
	return nil, synth.ErrNoSolution
}

// cancelled is the non-blocking ctx poll shared by the search loops.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// bfs1q searches single-qubit Clifford+T words breadth-first with
// phase-canonical deduplication, returning a minimal-length word.
func (s *Synthesizer) bfs1q(ctx context.Context, target linalg.Matrix, tol float64) (*circuit.Circuit, bool) {
	type node struct {
		u    linalg.Matrix
		word []gate.Name
	}
	vocab := []gate.Name{gate.H, gate.X, gate.S, gate.Sdg, gate.T, gate.Tdg}
	seen := map[string]bool{}
	frontier := []node{{u: linalg.Identity(2)}}
	seen[canonKey(frontier[0].u)] = true
	deadline := time.Now().Add(s.MaxTime)
	for depth := 0; depth <= s.BFSDepth; depth++ {
		var next []node
		for _, nd := range frontier {
			if linalg.HSDistance(nd.u, target) <= tol {
				c := circuit.New(1)
				for _, w := range nd.word {
					c.Append(gate.New(w, []int{0}, nil))
				}
				return c, true
			}
			if depth == s.BFSDepth {
				continue
			}
			for _, g := range vocab {
				m := linalg.Mul(gate.Matrix(gate.New(g, []int{0}, nil)), nd.u)
				key := canonKey(m)
				if seen[key] {
					continue
				}
				seen[key] = true
				word := make([]gate.Name, len(nd.word)+1)
				copy(word, nd.word)
				word[len(nd.word)] = g
				next = append(next, node{u: m, word: word})
			}
			if s.MaxTime > 0 && time.Now().After(deadline) {
				return nil, false
			}
			if cancelled(ctx) {
				return nil, false
			}
		}
		frontier = next
	}
	return nil, false
}

// canonKey produces a global-phase-invariant fingerprint of a 2×2 unitary.
func canonKey(m linalg.Matrix) string {
	// Normalize phase: divide by the phase of the largest-magnitude entry.
	var big complex128
	var mag float64
	for _, v := range m.Data {
		a := real(v)*real(v) + imag(v)*imag(v)
		if a > mag {
			mag = a
			big = v
		}
	}
	ph := big / complex(math.Sqrt(mag), 0)
	inv := 1 / ph
	buf := make([]byte, 0, 64)
	for _, v := range m.Data {
		w := v * inv
		buf = append(buf, byte(int8(real(w)*100)), byte(int8(imag(w)*100)))
	}
	return string(buf)
}

// anneal runs simulated annealing over bounded gate sequences: moves are
// insert / delete / replace; the score is the HS distance with a small
// length penalty; on success the result is greedily pruned.
func (s *Synthesizer) anneal(ctx context.Context, target linalg.Matrix, n int, tol float64) (*circuit.Circuit, bool) {
	rng := rand.New(rand.NewSource(s.Seed ^ hashMatrix(target)))
	vocab := moves(n)
	deadline := time.Now().Add(s.MaxTime)

	cost := func(gs []gate.Gate) float64 {
		u := linalg.Identity(target.N)
		for _, g := range gs {
			linalg.ApplyGateLeft(gate.Matrix(g), g.Qubits, n, u)
		}
		return linalg.HSDistance(u, target)
	}

	for restart := 0; restart < s.Restarts; restart++ {
		var cur []gate.Gate
		curCost := cost(cur)
		temp := 0.3
		for it := 0; it < s.Iters; it++ {
			temp *= 0.999
			cand := mutate(cur, vocab, s.MaxGates, rng)
			cc := cost(cand)
			if cc <= curCost || rng.Float64() < math.Exp((curCost-cc)/math.Max(temp, 1e-4)) {
				cur, curCost = cand, cc
			}
			if curCost <= tol {
				return s.prune(cur, target, n, tol), true
			}
			if it%128 == 0 {
				if s.MaxTime > 0 && time.Now().After(deadline) {
					return nil, false
				}
				if cancelled(ctx) {
					return nil, false
				}
			}
		}
	}
	return nil, false
}

func mutate(cur []gate.Gate, vocab []gate.Gate, maxGates int, rng *rand.Rand) []gate.Gate {
	out := make([]gate.Gate, len(cur))
	copy(out, cur)
	switch op := rng.Intn(3); {
	case op == 0 && len(out) < maxGates: // insert
		pos := rng.Intn(len(out) + 1)
		g := vocab[rng.Intn(len(vocab))]
		out = append(out, gate.Gate{})
		copy(out[pos+1:], out[pos:])
		out[pos] = g
	case op == 1 && len(out) > 0: // delete
		pos := rng.Intn(len(out))
		out = append(out[:pos], out[pos+1:]...)
	case op == 2 && len(out) > 0: // replace
		out[rng.Intn(len(out))] = vocab[rng.Intn(len(vocab))]
	default:
		if len(out) < maxGates {
			pos := rng.Intn(len(out) + 1)
			g := vocab[rng.Intn(len(vocab))]
			out = append(out, gate.Gate{})
			copy(out[pos+1:], out[pos:])
			out[pos] = g
		}
	}
	return out
}

// prune greedily removes gates that keep the distance within tol, then
// cleans the result.
func (s *Synthesizer) prune(gs []gate.Gate, target linalg.Matrix, n int, tol float64) *circuit.Circuit {
	cur := make([]gate.Gate, len(gs))
	copy(cur, gs)
	dist := func(list []gate.Gate) float64 {
		u := linalg.Identity(target.N)
		for _, g := range list {
			linalg.ApplyGateLeft(gate.Matrix(g), g.Qubits, n, u)
		}
		return linalg.HSDistance(u, target)
	}
	for i := 0; i < len(cur); {
		trial := append(append([]gate.Gate{}, cur[:i]...), cur[i+1:]...)
		if dist(trial) <= tol {
			cur = trial
		} else {
			i++
		}
	}
	c := circuit.New(n)
	c.Append(cur...)
	out, _ := rewrite.CleanupChangedFor(c, gateset.CliffordT)
	return out
}

func hashMatrix(m linalg.Matrix) int64 {
	var h uint64 = 14695981039346656037
	for _, v := range m.Data {
		h = (h ^ uint64(int64(real(v)*1e6))) * 1099511628211
		h = (h ^ uint64(int64(imag(v)*1e6))) * 1099511628211
	}
	return int64(h)
}
