package baselines

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/synth"
)

// smallBench translates a small benchmark into a gate set for baseline
// testing (few qubits so semantics can be verified by unitary).
func smallBench(t *testing.T, gs *gateset.GateSet) *circuit.Circuit {
	t.Helper()
	src := benchmarks.BarencoTof(3)
	out, err := gateset.Translate(src, gs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEveryBaselineSoundAndNotWorse(t *testing.T) {
	eps := 1e-8
	var tools []Optimizer
	for _, name := range []string{"qiskit", "tket", "voqc", "bqskit", "queso", "quartz", "quarl",
		"pyzx", "synthetiq", "guoq"} {
		tool, err := ByName(name, eps)
		if err != nil {
			t.Fatal(err)
		}
		tools = append(tools, tool)
	}
	for _, gs := range []*gateset.GateSet{gateset.Nam, gateset.CliffordT} {
		c := smallBench(t, gs)
		orig := c.Unitary()
		cost := opt.TwoQubitCost()
		for _, tool := range tools {
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			out := tool.Optimize(ctx, c, gs, cost, 1)
			cancel()
			if cost(out) > cost(c) {
				t.Errorf("%s on %s: made the circuit worse", tool.Name(), gs.Name)
			}
			if d := linalg.HSDistance(out.Unitary(), orig); d > eps+1e-9 {
				t.Errorf("%s on %s: broke semantics (Δ=%g)", tool.Name(), gs.Name, d)
			}
			if !gs.IsNative(out) {
				t.Errorf("%s on %s: emitted non-native gates", tool.Name(), gs.Name)
			}
		}
	}
}

func TestFixedPassDeterministic(t *testing.T) {
	c := smallBench(t, gateset.Nam)
	q := NewQiskit()
	a := q.Optimize(context.Background(), c, gateset.Nam, opt.TwoQubitCost(), 1)
	b := q.Optimize(context.Background(), c, gateset.Nam, opt.TwoQubitCost(), 2)
	if !circuit.Equal(a, b) {
		t.Fatal("fixed-pass optimizer is not deterministic")
	}
}

func TestPyZXReducesTNotCX(t *testing.T) {
	c := smallBench(t, gateset.CliffordT)
	out := NewPyZX().Optimize(context.Background(), c, gateset.CliffordT, opt.TCost(), 1)
	if out.TwoQubitCount() != c.TwoQubitCount() {
		t.Fatalf("pyzx proxy changed CX count %d -> %d", c.TwoQubitCount(), out.TwoQubitCount())
	}
	if out.TCount() > c.TCount() {
		t.Fatalf("pyzx proxy increased T count")
	}
}

func TestPartitionBlocksCoverAndBound(t *testing.T) {
	c := smallBench(t, gateset.Nam)
	p := NewBQSKit(1e-8)
	blocks := p.Blocks(c)
	covered := map[int]bool{}
	for _, b := range blocks {
		if len(b.Qubits) > p.MaxQubits {
			t.Fatalf("block spans %d qubits", len(b.Qubits))
		}
		for _, i := range b.Indices {
			if covered[i] {
				t.Fatalf("gate %d in two blocks", i)
			}
			covered[i] = true
		}
	}
	if len(covered) != c.Len() {
		t.Fatalf("blocks cover %d of %d gates", len(covered), c.Len())
	}
}

func TestGUOQBeatsQiskitOnRedundantCircuit(t *testing.T) {
	// The headline claim in miniature: on a structured circuit, GUOQ's
	// randomized search must beat a fixed pass pipeline given some budget.
	gs := gateset.Nam
	src := benchmarks.BarencoTof(5)
	c, err := gateset.Translate(src, gs)
	if err != nil {
		t.Fatal(err)
	}
	cost := opt.TwoQubitCost()
	qiskit := NewQiskit().Optimize(context.Background(), c, gs, cost, 1)
	guoq, _ := NewGUOQ(1e-8).OptimizeStats(c, gs, cost, 2*time.Second, 1)
	if guoq.TwoQubitCount() > qiskit.TwoQubitCount() {
		t.Fatalf("guoq (%d 2q) worse than qiskit (%d 2q)",
			guoq.TwoQubitCount(), qiskit.TwoQubitCount())
	}
}

func TestByNameRegistry(t *testing.T) {
	names := []string{"qiskit", "tket", "voqc", "bqskit", "synthetiq", "queso",
		"quartz", "quarl", "pyzx", "guoq", "guoq-rewrite", "guoq-resynth",
		"guoq-seq-rewrite-resynth", "guoq-seq-resynth-rewrite", "guoq-beam",
		"portfolio", "partition-parallel"}
	for _, n := range names {
		tool, err := ByName(n, 1e-8)
		if err != nil {
			t.Errorf("ByName(%s): %v", n, err)
			continue
		}
		if tool.Name() != n {
			t.Errorf("ByName(%s).Name() = %s", n, tool.Name())
		}
	}
	if _, err := ByName("nope", 1e-8); err == nil {
		t.Error("unknown tool should fail")
	}
}

// blockingSynth is a synthesizer with no time cap of its own: it finds
// nothing, and returns when its context ends or after 3 s.
type blockingSynth struct{}

func (blockingSynth) Name() string { return "blocking" }
func (blockingSynth) Synthesize(ctx context.Context, _ *circuit.Circuit, _ float64) (*circuit.Circuit, float64, error) {
	wait := time.NewTimer(3 * time.Second)
	defer wait.Stop()
	select {
	case <-ctx.Done():
	case <-wait.C:
	}
	return nil, 0, synth.ErrNoSolution
}

// A budget ends a synthesis call in flight, not only the loop between
// calls: a blocking synthesizer must not hold a 100 ms run for its 3 s,
// in the annealing loop or in the beam.
func TestBudgetBoundsInFlightSynthesis(t *testing.T) {
	c := smallBench(t, gateset.Nam)
	for _, mode := range []GUOQMode{ModeResynth, ModeBeam} {
		g := NewGUOQVariant("blocking", mode, 1e-8)
		g.Registry = opt.NewRegistry(opt.Static(&opt.CircuitResynthTransformation{
			Synth: blockingSynth{}, MaxQubits: 3, DeclaredEps: 1e-8,
		}))
		start := time.Now()
		out, _ := g.OptimizeStats(c, gateset.Nam, opt.TwoQubitCost(), 100*time.Millisecond, 1)
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("mode %d: a 100ms budget ran %v", mode, elapsed)
		}
		if !circuit.Equal(out, c) {
			t.Fatalf("mode %d: a synthesizer that found nothing changed the circuit", mode)
		}
	}
}

// With no deadline on its context, the Quarl proxy must still return: it
// stops at its first plateau, and when two steps in a row find no new
// best, instead of walking plateau moves or undoing its own steps.
// Before, 8 of these 12 seeds ran until a 2 s context ended.
func TestQuarlNoDeadlineReturns(t *testing.T) {
	cost := opt.TwoQubitCost()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seed := int64(1); seed <= 12; seed++ {
			c := circuit.Random(4, 60, gateset.Nam.Gates, rand.New(rand.NewSource(seed)))
			if out := NewQuarl().Optimize(context.Background(), c, gateset.Nam, cost, 1); cost(out) > cost(c) {
				t.Errorf("seed %d: cost %.3f, worse than the input's %.3f", seed, cost(out), cost(c))
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a run without a deadline did not return within 20 s")
	}
}

// Under a context deadline the Quarl proxy searches past its initial
// cleanup, which is all that a deadline too short for one greedy step
// returns.
func TestQuarlBudgetZeroSearches(t *testing.T) {
	// The search on this circuit ends on its own after about 6 ms, at cost
	// 15.037 against the cleanup's 15.046.
	c := circuit.Random(4, 60, gateset.Nam.Gates, rand.New(rand.NewSource(3)))
	cost := opt.TwoQubitCost()
	q := NewQuarl()
	expired, stop := context.WithTimeout(context.Background(), time.Nanosecond)
	defer stop()
	cleaned := cost(q.Optimize(expired, c, gateset.Nam, cost, 1))
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if got := cost(q.Optimize(ctx, c, gateset.Nam, cost, 1)); got >= cleaned {
		t.Fatalf("under a 200 ms context: cost %.3f, no better than the initial cleanup's %.3f", got, cleaned)
	}
}

// A deadline on the context caps each synthesis call exactly as a budget
// of the same length does: at a quarter of the time left, at most 500 ms.
// Without a deadline the cap is 500 ms.
func TestDeadlineAndBudgetSetOneSynthesisCap(t *testing.T) {
	c := smallBench(t, gateset.Nam)
	cost := opt.TwoQubitCost()
	synthCap := func(run func(g *GUOQ)) time.Duration {
		var got time.Duration
		g := NewGUOQVariant("cap", ModeRewrite, 1e-8)
		g.MaxIters = 1
		g.Registry = opt.NewRegistry(func(gs *gateset.GateSet, io opt.InstantiateOptions) ([]opt.Transformation, error) {
			got = io.SynthTime
			return opt.Instantiate(gs, io)
		})
		run(g)
		return got
	}
	deadline := synthCap(func(g *GUOQ) {
		ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
		defer cancel()
		g.OptimizeStatsContext(ctx, c, gateset.Nam, cost, 1)
	})
	budget := synthCap(func(g *GUOQ) {
		g.OptimizeStats(c, gateset.Nam, cost, 400*time.Millisecond, 1)
	})
	none := synthCap(func(g *GUOQ) {
		g.OptimizeStatsContext(context.Background(), c, gateset.Nam, cost, 1)
	})
	for name, got := range map[string]time.Duration{"400 ms deadline": deadline, "400 ms budget": budget} {
		if got < 90*time.Millisecond || got > 100*time.Millisecond {
			t.Errorf("%s: synthesis cap %v, want 90–100 ms", name, got)
		}
	}
	if none != 500*time.Millisecond {
		t.Errorf("no deadline: synthesis cap %v, want 500 ms", none)
	}
}
