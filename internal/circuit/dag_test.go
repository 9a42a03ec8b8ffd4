package circuit

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/guoq-dev/guoq/internal/gate"
)

// checkDAG holds every DAG accessor to an oracle that shares no code with
// Rebuild: a naive scan of the gate list along each wire.
func checkDAG(t *testing.T, d *DAG) {
	t.Helper()
	c := d.Circuit()
	on := func(i, q int) bool { return slices.Contains(c.Gates[i].Qubits, q) }
	nextOn := func(i, q int) int {
		for j := i + 1; j < len(c.Gates); j++ {
			if on(j, q) {
				return j
			}
		}
		return -1
	}
	prevOn := func(i, q int) int {
		for j := i - 1; j >= 0; j-- {
			if on(j, q) {
				return j
			}
		}
		return -1
	}
	distinct := func(links []int) []int {
		var out []int
		for _, j := range links {
			if j >= 0 && !slices.Contains(out, j) {
				out = append(out, j)
			}
		}
		return out
	}
	for q := 0; q < c.NumQubits; q++ {
		var want []int
		for i := range c.Gates {
			if on(i, q) {
				want = append(want, i)
			}
		}
		if got := d.Wire(q); !slices.Equal(got, want) {
			t.Fatalf("wire %d = %v, want %v", q, got, want)
		}
	}
	for i, g := range c.Gates {
		var wantNext, wantPrev []int
		for _, q := range g.Qubits {
			wantNext = append(wantNext, nextOn(i, q))
			wantPrev = append(wantPrev, prevOn(i, q))
		}
		next, prev := d.Links(i)
		if !slices.Equal(next, wantNext) || !slices.Equal(prev, wantPrev) {
			t.Fatalf("gate %d %v: links next %v prev %v, want %v and %v", i, g, next, prev, wantNext, wantPrev)
		}
		for k, q := range g.Qubits {
			if got := d.NextOnWire(i, q); got != wantNext[k] {
				t.Fatalf("gate %d next on wire %d = %d, want %d", i, q, got, wantNext[k])
			}
			if got := d.PrevOnWire(i, q); got != wantPrev[k] {
				t.Fatalf("gate %d prev on wire %d = %d, want %d", i, q, got, wantPrev[k])
			}
		}
		if got, want := d.Successors(i), distinct(wantNext); !slices.Equal(got, want) {
			t.Fatalf("gate %d successors %v, want %v", i, got, want)
		}
		if got, want := d.Predecessors(i), distinct(wantPrev); !slices.Equal(got, want) {
			t.Fatalf("gate %d predecessors %v, want %v", i, got, want)
		}
	}
}

// dagGates draws k gates over n qubits that mix 1-, 2- and 3-qubit gates,
// and often put a 2-qubit gate right after one on the same pair (either
// orientation), where both wires lead to one successor.
func dagGates(n, k int, rng *rand.Rand) []gate.Gate {
	var out []gate.Gate
	for len(out) < k {
		switch r := rng.Intn(8); {
		case r < 3:
			out = append(out, gate.NewRz(rng.Float64(), rng.Intn(n)))
		case r < 4 && n >= 3:
			qs := rng.Perm(n)[:3]
			out = append(out, gate.NewCCX(qs[0], qs[1], qs[2]))
		case r < 6 && n >= 2:
			qs := rng.Perm(n)[:2]
			out = append(out, gate.NewCX(qs[0], qs[1]))
			if rng.Intn(2) == 0 {
				out = append(out, gate.NewCZ(qs[1], qs[0]))
			}
		default:
			out = append(out, gate.NewH(rng.Intn(n)))
		}
	}
	return out[:k]
}

// TestDAGSpliceMatchesOracle drives a long chain of random window splices
// (shrinking, growing, pure insertion, pure deletion) through one
// persistent DAG and checks it against the per-wire oracle after every
// step.
func TestDAGSpliceMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		c := New(6)
		c.Gates = dagGates(6, 40, rng)
		d := BuildDAG(c)
		checkDAG(t, d)
		for step := 0; step < 200; step++ {
			n := len(c.Gates)
			var lo, hi int
			if n == 0 || rng.Intn(8) == 0 {
				// Pure insertion.
				lo = 0
				if n > 0 {
					lo = rng.Intn(n + 1)
				}
				hi = lo - 1
			} else {
				lo = rng.Intn(n)
				hi = lo + rng.Intn(min(n-lo, 6))
			}
			var repl []gate.Gate
			if k := rng.Intn(5); k > 0 && rng.Intn(6) != 0 {
				repl = dagGates(c.NumQubits, k, rng)
			}
			d.Splice(lo, hi, repl)
			checkDAG(t, d)
		}
	}
}

// TestDAGRebuildReuse exercises Rebuild after swapping the gate list
// wholesale, including qubit-count changes in both directions.
func TestDAGRebuildReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New(5)
	c.Gates = dagGates(5, 30, rng)
	d := BuildDAG(c)
	for step := 0; step < 20; step++ {
		nq := 2 + rng.Intn(6)
		c.NumQubits = nq
		c.Gates = dagGates(nq, rng.Intn(50), rng)
		d.Rebuild()
		checkDAG(t, d)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
