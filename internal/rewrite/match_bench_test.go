package rewrite

import (
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// BenchmarkMatchScan{Stateless,Cached} isolate raw match throughput over
// the full nam rule library on a fixed 16-qubit, 600-gate circuit — the
// same workload as BenchmarkEngineFullPass minus splicing. Stateless
// re-runs matchAt at every anchor each scan; Cached runs the engine's scan
// over a warm candidate index, which visits only the anchors of each
// rule's first gate name whose verdict is not yet a recorded failure.
// Neither is gated; they show how much of a rescan the index saves.
func BenchmarkMatchScanStateless(b *testing.B) { benchMatchScan(b, false) }
func BenchmarkMatchScanCached(b *testing.B)    { benchMatchScan(b, true) }

func benchMatchScan(b *testing.B, cached bool) {
	rng := rand.New(rand.NewSource(2))
	c := circuit.Random(16, 600, gateset.Nam.Gates, rng)
	rules := namRules()
	e := NewEngine(c)
	if cached {
		// Warm pass: record a verdict at every candidate of every rule.
		for _, r := range rules {
			e.matchBuf = e.matchCandidates(r, e.cacheFor(r), 0)[:0]
		}
	}
	d := circuit.BuildDAG(c)
	s := newMatchScratch()
	used := make([]bool, len(c.Gates))
	var out []*Match
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rules {
			if cached {
				e.matchBuf = e.matchCandidates(r, e.cacheFor(r), 0)[:0]
				continue
			}
			for j := range used {
				used[j] = false
			}
			out = findMatches(c, d, r, 0, s, used, out[:0])
		}
	}
}
