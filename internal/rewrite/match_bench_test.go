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
// re-runs matchAt at every anchor each scan; Cached skips the anchors the
// engine's warm per-anchor cache records as no-match and rematches the
// rest. Neither is gated; they show how much of a rescan the negative
// cache saves.
func BenchmarkMatchScanStateless(b *testing.B) { benchMatchScan(b, false) }
func BenchmarkMatchScanCached(b *testing.B)    { benchMatchScan(b, true) }

func benchMatchScan(b *testing.B, cached bool) {
	rng := rand.New(rand.NewSource(2))
	c := circuit.Random(16, 600, gateset.Nam.Gates, rng)
	rules := namRules()
	e := NewEngine(c)
	if cached {
		// Warm pass: record a verdict at (nearly) every (rule, anchor).
		for _, r := range rules {
			used := make([]bool, len(e.c.Gates))
			findMatches(e.c, e.dag, r, 0, e.scratch, used, e.cacheFor(r), nil, &e.stats)
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
			for j := range used {
				used[j] = false
			}
			if cached {
				out = findMatches(e.c, e.dag, r, 0, e.scratch, used, e.cacheFor(r), out[:0], &e.stats)
			} else {
				out = findMatches(c, d, r, 0, s, used, nil, out[:0], nil)
			}
		}
	}
}
