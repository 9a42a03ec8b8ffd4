package baselines

import (
	"context"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/partition"
	"github.com/guoq-dev/guoq/internal/synth"
	"github.com/guoq-dev/guoq/internal/synth/finite"
	"github.com/guoq-dev/guoq/internal/synth/numeric"
)

// Partition is the BQSKit/QUEST-style resynthesis optimizer of Table 3: a
// single pass that partitions the circuit into ≤ MaxQubits-qubit blocks and
// resynthesizes each block independently. As §7 notes, the fixed partition
// misses optimizations straddling block boundaries — the structural
// weakness GUOQ's free subcircuit choice removes.
type Partition struct {
	Tool      string
	MaxQubits int
	// Epsilon is the global error budget, split evenly across blocks
	// (QUEST-style ε/k per block).
	Epsilon float64
	// UseFinite selects the Synthetiq-style synthesizer (the paper's
	// "BQSKit-style partitioning optimizer that uses Synthetiq" for Q4).
	UseFinite bool
}

// NewBQSKit is the continuous-set partition optimizer.
func NewBQSKit(eps float64) *Partition {
	return &Partition{Tool: "bqskit", MaxQubits: 3, Epsilon: eps}
}

// NewSynthetiqPartition is the Clifford+T partition optimizer used in Q4.
func NewSynthetiqPartition(eps float64) *Partition {
	return &Partition{Tool: "synthetiq", MaxQubits: 3, Epsilon: eps, UseFinite: true}
}

// Name implements Optimizer.
func (p *Partition) Name() string { return p.Tool }

// Blocks splits the circuit into consecutive convex blocks spanning at most
// MaxQubits qubits each (shared with the parallel engine via
// internal/partition).
func (p *Partition) Blocks(c *circuit.Circuit) []*circuit.Region {
	return partition.Blocks(c, p.MaxQubits)
}

// Optimize implements Optimizer: one partition pass, resynthesizing each
// block with its two-qubit count as the ceiling (opt.UnitarySynth) and
// keeping the replacement only when it improves the cost. Cancellation is
// observed between blocks and by the synthesis call itself, so a cancelled
// pass returns the blocks already improved. Each block goes through
// opt.Resynthesize, the check every resynthesis passes.
func (p *Partition) Optimize(ctx context.Context, c *circuit.Circuit, gs *gateset.GateSet, cost opt.Cost, seed int64) *circuit.Circuit {
	var syn synth.Synthesizer
	if p.UseFinite || !gs.Continuous() {
		fs := finite.New()
		fs.Seed = seed
		syn = fs
	} else {
		syn = numeric.New(gs)
	}

	blocks := p.Blocks(c)
	if len(blocks) == 0 {
		return c
	}
	epsPerBlock := p.Epsilon / float64(len(blocks))
	out := c
	// Blocks are replaced back-to-front so earlier indices stay valid.
	for bi := len(blocks) - 1; bi >= 0; bi-- {
		if ctx.Err() != nil {
			break
		}
		region := blocks[bi]
		sub := region.Extract(out)
		if sub.Len() < 2 {
			continue
		}
		repl, _, ok := opt.Resynthesize(ctx, opt.UnitarySynth(syn), sub, epsPerBlock, nil)
		if !ok {
			continue
		}
		cand := region.Replace(out, repl)
		if cost(cand) < cost(out) {
			out = cand
		}
	}
	return keepBetter(c, out, cost)
}
