package partition

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/verify"
)

func randomCircuit(seed int64, n, gates int) *circuit.Circuit {
	return circuit.Random(n, gates, circuit.DefaultTestVocab, rand.New(rand.NewSource(seed)))
}

func TestTimeWindowsDisjointCover(t *testing.T) {
	c := randomCircuit(1, 6, 100)
	windows := TimeWindows(c, 4, 10)
	if len(windows) < 2 {
		t.Fatalf("expected ≥2 windows, got %d", len(windows))
	}
	seen := map[int]bool{}
	for _, w := range windows {
		for _, i := range w.Indices {
			if seen[i] {
				t.Fatalf("gate %d selected by two windows", i)
			}
			seen[i] = true
			if i < w.Lo || i > w.Hi {
				t.Fatalf("index %d outside window [%d,%d]", i, w.Lo, w.Hi)
			}
		}
	}
	if len(seen) != c.Len() {
		t.Fatalf("windows cover %d of %d gates", len(seen), c.Len())
	}
}

func TestTimeWindowsRoundTrip(t *testing.T) {
	// Extracting every window and replacing it unchanged must reproduce the
	// circuit's semantics — the identity case of the stitching step.
	c := randomCircuit(2, 5, 80)
	windows := TimeWindows(c, 3, 10)
	out := c
	for i := len(windows) - 1; i >= 0; i-- {
		sub := windows[i].Extract(c)
		out = windows[i].Replace(out, sub)
	}
	if err := verify.MustBeEquivalent(c, out, 1e-9, 5); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWindowsTooSmall(t *testing.T) {
	c := randomCircuit(3, 4, 15)
	if w := TimeWindows(c, 4, 10); w != nil {
		t.Fatalf("expected nil for a circuit below 2×minGates, got %d windows", len(w))
	}
	if w := TimeWindows(c, 1, 2); w != nil {
		t.Fatal("expected nil for n < 2")
	}
}

func TestTimeWindowsMergesSliver(t *testing.T) {
	// 85 gates over 4 windows of 22: the trailing 19-gate sliver must merge
	// into the previous window rather than form one below minGates.
	c := randomCircuit(4, 6, 85)
	windows := TimeWindows(c, 4, 22)
	total := 0
	for _, w := range windows {
		if len(w.Indices) < 22 {
			t.Fatalf("window of %d gates below minGates", len(w.Indices))
		}
		total += len(w.Indices)
	}
	if total != c.Len() {
		t.Fatalf("windows cover %d of %d gates", total, c.Len())
	}
}

// FuzzTimeWindows checks the whole TimeWindows contract on arbitrary sizes:
// nil exactly when partitioning is pointless; otherwise between 2 and n
// contiguous windows in order, covering every gate once, each selecting its
// full index range with the sorted union of its gates' qubits, none below
// minGates, and none above the larger of the cut width per and a merged
// pair (2×minGates−1). The seeds are the sizes where the trailing-sliver
// repair changes behaviour.
func FuzzTimeWindows(f *testing.F) {
	for _, seed := range [][3]int{
		{85, 4, 20},   // trailing sliver rebalanced (pair ≥ 2×minGates)
		{85, 4, 22},   // trailing sliver merged (pair < 2×minGates)
		{97, 3, 32},   // pair carries exactly 2×minGates: split, not merged
		{97, 3, 33},   // pair one short of 2×minGates: merged
		{48, 2, 24},   // smallest circuit accepted at this floor
		{47, 2, 24},   // one gate below the floor: nil
		{120, 4, 24},  // even division, no sliver
		{100, 50, 10}, // per clamped up to minGates: fewer than n windows
		{600, 8, 24},  // PartitionParallel's floor on a larger input
		{2, 2, 0},     // two gates, no floor
		{1, 2, 0},     // one gate: nil
		{0, 3, 0},     // empty circuit: nil
		{100, 1, 10},  // n < 2: nil
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, gates, n, minGates int) {
		if gates < 0 || gates > 2000 || n > 64 || minGates < 0 || minGates > 256 {
			t.Skip()
		}
		c := randomCircuit(int64(gates), 6, gates)
		windows := TimeWindows(c, n, minGates)
		if n < 2 || gates < 2*minGates || gates < 2 {
			if windows != nil {
				t.Fatalf("%d gates, n=%d, min=%d: got %d windows, want nil", gates, n, minGates, len(windows))
			}
			return
		}
		if len(windows) < 2 || len(windows) > n {
			t.Fatalf("%d gates, n=%d, min=%d: got %d windows, want 2..%d", gates, n, minGates, len(windows), n)
		}
		per := max((gates+n-1)/n, minGates)
		maxW := max(per, 2*minGates-1)
		next := 0
		for wi, w := range windows {
			if w.Lo != next {
				t.Fatalf("window %d starts at %d, want %d", wi, w.Lo, next)
			}
			next = w.Hi + 1
			if width := w.Hi - w.Lo + 1; width < minGates || width > maxW {
				t.Fatalf("window %d has %d gates, want %d..%d", wi, width, minGates, maxW)
			}
			if len(w.Indices) != w.Hi-w.Lo+1 {
				t.Fatalf("window %d selects %d of its %d gates", wi, len(w.Indices), w.Hi-w.Lo+1)
			}
			used := make([]bool, c.NumQubits)
			for k, i := range w.Indices {
				if i != w.Lo+k {
					t.Fatalf("window %d: index %d at position %d", wi, i, k)
				}
				for _, q := range c.Gates[i].Qubits {
					used[q] = true
				}
			}
			var want []int
			for q, u := range used {
				if u {
					want = append(want, q)
				}
			}
			if !slices.Equal(w.Qubits, want) {
				t.Fatalf("window %d qubits %v, want %v", wi, w.Qubits, want)
			}
		}
		if next != gates {
			t.Fatalf("windows end at gate %d of %d", next, gates)
		}
	})
}

// checkWindows pins the three window invariants every partition promises:
// pairwise-disjoint selections, full coverage of the gate list, and indices
// confined to their window bounds.
func checkWindows(t *testing.T, c *circuit.Circuit, windows []*circuit.Region) {
	t.Helper()
	seen := map[int]bool{}
	for wi, w := range windows {
		for _, i := range w.Indices {
			if seen[i] {
				t.Fatalf("gate %d selected by two windows", i)
			}
			seen[i] = true
			if i < w.Lo || i > w.Hi {
				t.Fatalf("window %d: index %d outside [%d,%d]", wi, i, w.Lo, w.Hi)
			}
		}
	}
	if len(seen) != c.Len() {
		t.Fatalf("windows cover %d of %d gates", len(seen), c.Len())
	}
}

// The sliver-merge boundary, table-driven: window counts, per-window size
// bounds, coverage, and disjointness must hold exactly at the sizes where
// the trailing window degenerates. The old
// merge appended a sliver to its predecessor wholesale, silently emitting
// windows of up to per+minGates-1 gates; the rebalanced construction keeps
// every window within [minGates, per] whenever the pair carries 2×minGates.
func TestTimeWindowsBoundaries(t *testing.T) {
	cases := []struct {
		name               string
		gates, n, min      int
		wantWindows        int
		wantMinW, wantMaxW int // per-window gate-count bounds (0 = skip)
	}{
		// 85 over per=22: trailing 19-gate sliver, pair 41 < 2·20=40? no:
		// min=20 ⇒ 41 ≥ 40 rebalances into 20+21.
		{"rebalance-trailing", 85, 4, 20, 4, 20, 22},
		// min=22: pair carries 41 < 44, must merge (bounded by 2·min-1=43).
		{"merge-trailing", 85, 4, 22, 3, 22, 43},
		// Exactly 2×minGates: the smallest circuit TimeWindows accepts.
		{"exact-two-windows", 48, 2, 24, 2, 24, 24},
		// One below 2×minGates: rejected (hard floor).
		{"below-floor", 47, 2, 24, 0, 0, 0},
		// Pair carries exactly 2×minGates: rebalances, never merges.
		{"rebalance-exact-2min", 97, 3, 32, 3, 32, 33},
		// Pair one short of 2×minGates: merges, bounded by 2×minGates-1.
		{"merge-trailing-bound", 97, 3, 33, 2, 33, 64},
		// Divides evenly: no sliver handling at all.
		{"even", 120, 4, 24, 4, 30, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := randomCircuit(7, 6, tc.gates)
			windows := TimeWindows(c, tc.n, tc.min)
			if tc.wantWindows == 0 {
				if windows != nil {
					t.Fatalf("expected nil, got %d windows", len(windows))
				}
				return
			}
			if len(windows) != tc.wantWindows {
				t.Fatalf("got %d windows, want %d", len(windows), tc.wantWindows)
			}
			checkWindows(t, c, windows)
			for _, w := range windows {
				if n := len(w.Indices); n < tc.wantMinW || n > tc.wantMaxW {
					t.Fatalf("window of %d gates outside [%d,%d]", n, tc.wantMinW, tc.wantMaxW)
				}
			}
		})
	}
}

// checkBlockInvariant pins the circuit.Region contract on every block:
// each unselected gate inside the block's window acts on qubits disjoint
// from the block (the convexity condition Extract/Replace rely on).
func checkBlockInvariant(t *testing.T, c *circuit.Circuit, blocks []*circuit.Region) {
	t.Helper()
	for bi, b := range blocks {
		sel := map[int]bool{}
		for _, i := range b.Indices {
			sel[i] = true
		}
		qs := map[int]bool{}
		for _, q := range b.Qubits {
			qs[q] = true
		}
		for i := b.Lo; i <= b.Hi; i++ {
			if sel[i] {
				continue
			}
			for _, q := range c.Gates[i].Qubits {
				if qs[q] {
					t.Fatalf("block %d: unselected gate %d shares qubit %d with the block", bi, i, q)
				}
			}
		}
	}
}

// A wide gate on qubits disjoint from the open block must be skipped in
// place, not flush the block — the old force-flush fragmented coverage on
// circuits with interleaved multi-qubit gates.
func TestBlocksSkipDisjointWideGate(t *testing.T) {
	c := circuit.New(5)
	c.Append(
		gate.NewCX(0, 1),
		gate.New(gate.CCX, []int{2, 3, 4}, nil), // wide, disjoint: skip
		gate.NewCX(0, 1),
		gate.NewH(0),
	)
	blocks := Blocks(c, 2)
	if len(blocks) != 1 {
		t.Fatalf("disjoint wide gate fragmented the block: got %d blocks, want 1", len(blocks))
	}
	b := blocks[0]
	if want := []int{0, 2, 3}; len(b.Indices) != len(want) {
		t.Fatalf("block selects %v, want %v", b.Indices, want)
	} else {
		for i, idx := range want {
			if b.Indices[i] != idx {
				t.Fatalf("block selects %v, want %v", b.Indices, want)
			}
		}
	}
	checkBlockInvariant(t, c, blocks)
}

// A wide gate sharing qubits with the open block must still close it: the
// block cannot skip a gate it is entangled with.
func TestBlocksWideGateIntersectingFlushes(t *testing.T) {
	c := circuit.New(4)
	c.Append(
		gate.NewCX(0, 1),
		gate.New(gate.CCX, []int{1, 2, 3}, nil), // shares qubit 1: flush
		gate.NewCX(0, 1),
	)
	blocks := Blocks(c, 2)
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	if blocks[0].Hi >= 1 {
		t.Fatalf("first block window [%d,%d] swallows the intersecting wide gate", blocks[0].Lo, blocks[0].Hi)
	}
	checkBlockInvariant(t, c, blocks)
}

// Once a wide gate has been skipped, its qubits are blocked: a later gate
// touching them must start a fresh block (absorbing it would put the wide
// gate's qubits inside the selection and break convexity).
func TestBlocksBlockedQubitsStartFreshBlock(t *testing.T) {
	c := circuit.New(5)
	c.Append(
		gate.NewCX(0, 1),
		gate.New(gate.CCX, []int{2, 3, 4}, nil), // skipped; 2,3,4 blocked
		gate.NewCX(2, 3),                        // touches blocked qubits
	)
	blocks := Blocks(c, 2)
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	if got := blocks[1].Indices; len(got) != 1 || got[0] != 2 {
		t.Fatalf("second block selects %v, want [2]", got)
	}
	checkBlockInvariant(t, c, blocks)
}

// Randomized sweep with 3-qubit gates in the vocabulary: every block stays
// within the qubit bound and satisfies the Region invariant.
func TestBlocksInvariantRandom(t *testing.T) {
	vocab := append([]gate.Name{gate.CCX, gate.CCZ}, circuit.DefaultTestVocab...)
	for seed := int64(0); seed < 8; seed++ {
		c := circuit.Random(6, 80, vocab, rand.New(rand.NewSource(seed)))
		for _, maxQ := range []int{2, 3} {
			blocks := Blocks(c, maxQ)
			for _, b := range blocks {
				if len(b.Qubits) > maxQ {
					t.Fatalf("seed %d: block spans %d qubits, bound %d", seed, len(b.Qubits), maxQ)
				}
			}
			checkBlockInvariant(t, c, blocks)
		}
	}
}

func TestBlocksRespectQubitBound(t *testing.T) {
	c := randomCircuit(5, 8, 120)
	for _, maxQ := range []int{2, 3} {
		for _, b := range Blocks(c, maxQ) {
			if len(b.Qubits) > maxQ {
				t.Fatalf("block spans %d qubits, bound %d", len(b.Qubits), maxQ)
			}
			for _, i := range b.Indices {
				for _, q := range c.Gates[i].Qubits {
					found := false
					for _, bq := range b.Qubits {
						if bq == q {
							found = true
						}
					}
					if !found {
						t.Fatalf("block omits qubit %d of gate %d", q, i)
					}
				}
			}
		}
	}
}
