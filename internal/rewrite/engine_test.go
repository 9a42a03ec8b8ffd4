package rewrite

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/phasepoly"
)

// TestEngineMatchesScratchFullPass is the metamorphic contract of the
// incremental engine: over long random rule sequences on random circuits —
// every rule library, wrap-around anchors, interleaved region replacements,
// whole-circuit cleanup, fusion and phase-folding passes through ApplyPass,
// and one-gate deletions spliced in by SetCircuit, with both committed and
// rolled-back steps — the engine's circuit must stay bit-identical to the
// one produced by the pure, from-scratch FullPass pipeline on a shadow
// copy, and every pass must report the stateless pass's count.
func TestEngineMatchesScratchFullPass(t *testing.T) {
	for name, rules := range AllLibraries() {
		name, rules := name, rules
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gs, err := gateset.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 42} {
				rng := rand.New(rand.NewSource(seed))
				ref := circuit.Random(8, 120, gs.Gates, rng)
				eng := NewEngine(ref)
				ref = ref.Clone() // the engine owns its own copy

				check := func(step int, what string) {
					t.Helper()
					if !circuit.Equal(eng.Circuit(), ref) {
						t.Fatalf("seed %d step %d (%s): engine diverged from scratch pipeline\nengine: %s\nscratch: %s",
							seed, step, what, eng.Circuit(), ref)
					}
				}

				for step := 0; step < 400; step++ {
					switch op := rng.Intn(13); {
					case op < 7: // rule full pass, random wrap-around anchor
						r := rules[rng.Intn(len(rules))]
						start := 0
						if ref.Len() > 0 {
							start = rng.Intn(ref.Len())
						}
						refOut, n1 := FullPass(ref, r, start)
						mark := eng.Mark()
						n2 := eng.FullPass(r, start)
						if n1 != n2 {
							t.Fatalf("seed %d step %d: rule %s replaced %d sites, scratch %d", seed, step, r.Name, n2, n1)
						}
						if rng.Intn(3) == 0 {
							// Speculative candidate rejected: roll back and
							// keep the shadow copy unchanged.
							eng.Rollback(mark)
						} else {
							eng.Commit()
							ref = refOut
						}
						check(step, "fullpass:"+r.Name)
					case op < 8: // convex region replaced by its own extraction
						if ref.Len() == 0 {
							continue
						}
						region := circuit.GrowConvex(ref, rng.Intn(ref.Len()), 3, 0, nil)
						if region == nil || len(region.Indices) == 0 {
							continue
						}
						sub := region.Extract(ref)
						mark := eng.Mark()
						eng.ReplaceRegion(region, sub)
						if rng.Intn(3) == 0 {
							eng.Rollback(mark)
						} else {
							eng.Commit()
							ref = region.Replace(ref, sub)
						}
						check(step, "region")
					case op < 11: // a whole-circuit τ0 pass through ApplyPass
						pass := tau0Passes[op-8]
						refOut, n1 := pass.Run(ref, gs)
						mark := eng.Mark()
						if n2 := eng.ApplyPass(pass, gs); n1 != n2 {
							t.Fatalf("seed %d step %d: %s changed %d, scratch %d", seed, step, pass.Name, n2, n1)
						}
						if n1 == 0 {
							continue
						}
						if rng.Intn(3) == 0 {
							eng.Rollback(mark)
						} else {
							eng.Commit()
							ref = refOut
						}
						check(step, pass.Name)
					case op < 12: // a one-gate deletion spliced in by SetCircuit
						if ref.Len() == 0 {
							continue
						}
						i := rng.Intn(ref.Len())
						edited := ref.Clone()
						edited.Gates = append(edited.Gates[:i], edited.Gates[i+1:]...)
						mark := eng.Mark()
						eng.SetCircuit(edited.Clone())
						if rng.Intn(3) == 0 {
							eng.Rollback(mark)
						} else {
							eng.Commit()
							ref = edited
						}
						check(step, "edit")
						// One pass of every rule: a no-match verdict left
						// stale next to the splice hides a match here.
						for _, r := range rules {
							refOut, n1 := FullPass(ref, r, 0)
							if n2 := eng.FullPass(r, 0); n1 != n2 {
								t.Fatalf("seed %d step %d: after an edit, rule %s replaced %d sites, scratch %d", seed, step, r.Name, n2, n1)
							}
							eng.Commit()
							ref = refOut
						}
						check(step, "edit+rules")
					default: // wholesale adoption of a fresh random circuit
						adopt := circuit.Random(8, 20+rng.Intn(100), gs.Gates, rng)
						eng.Reset(adopt)
						ref = adopt.Clone()
						check(step, "reset")
					}
				}
			}
		})
	}
}

// tau0Passes are the whole-circuit passes the search loop runs through
// ApplyPass, which adopts a changed result by SetCircuit.
var tau0Passes = []*Pass{
	{Name: "cleanup", Run: CleanupChangedFor},
	{Name: "fuse1q", Run: Fuse1QChanged},
	{Name: "phasefold", Run: phasepoly.FoldChangedFor},
}

// TestEngineRollbackHeavyMatchesScratch is the adversarial companion of
// TestEngineMatchesScratchFullPass: long sequences dominated by nested
// marks and rollbacks, across every rule library. An undo splice that left
// a stale no-match verdict in its halo would hide a real match from a later
// pass, which surfaces here as a divergence from the from-scratch pipeline.
func TestEngineRollbackHeavyMatchesScratch(t *testing.T) {
	for name, rules := range AllLibraries() {
		name, rules := name, rules
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gs, err := gateset.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			ref := circuit.Random(8, 150, gs.Gates, rng)
			eng := NewEngine(ref)
			ref = ref.Clone()

			for step := 0; step < 250; step++ {
				// Open a transaction, stack 1-3 passes inside it, then
				// reject the whole stack three times out of four.
				mark := eng.Mark()
				depth := 1 + rng.Intn(3)
				inner := make([]int, 0, depth)
				states := []*circuit.Circuit{ref} // states[k] = shadow after k inner passes
				for k := 0; k < depth; k++ {
					r := rules[rng.Intn(len(rules))]
					shadow := states[len(states)-1]
					start := 0
					if shadow.Len() > 0 {
						start = rng.Intn(shadow.Len())
					}
					inner = append(inner, eng.Mark())
					refOut, n1 := FullPass(shadow, r, start)
					if n2 := eng.FullPass(r, start); n1 != n2 {
						t.Fatalf("step %d: rule %s replaced %d sites, scratch %d", step, r.Name, n2, n1)
					}
					states = append(states, refOut)
				}
				switch rng.Intn(4) {
				case 0: // accept the whole stack
					eng.Commit()
					ref = states[depth]
				case 1: // partial rollback: keep a random prefix of the stack
					j := rng.Intn(depth + 1)
					if j < depth {
						eng.Rollback(inner[j])
					}
					eng.Commit()
					ref = states[j]
				default: // roll back the whole stack
					eng.Rollback(mark)
				}
				if !circuit.Equal(eng.Circuit(), ref) {
					t.Fatalf("step %d: engine diverged from scratch pipeline", step)
				}
			}
			st := eng.Stats()
			if st.Rollbacks == 0 {
				t.Fatalf("test exercised nothing: %+v", st)
			}
			t.Logf("%s: %+v", name, st)
		})
	}
}

// TestEngineCacheEngages asserts the negative caches short-circuit rescans
// in their production shapes. First, the reject shape (a GUOQ candidate
// whose pass found no matches, or a fixed-pass pipeline at its fixpoint):
// once the reducing rules stop matching, another full round over the same
// gate sequence skips every pass outright, visiting no anchor. Second, a
// round after a splice that changes no verdict (a region replaced by
// itself) must run, and must rematch only inside the splice's halo: most
// anchor verdicts are served from the candidate index.
func TestEngineCacheEngages(t *testing.T) {
	rules, err := RulesFor("nam")
	if err != nil {
		t.Fatal(err)
	}
	var reducing []*Rule
	for _, r := range rules {
		if r.Delta() < 0 {
			reducing = append(reducing, r)
		}
	}
	rng := rand.New(rand.NewSource(5))
	c := circuit.Random(10, 300, gateset.Nam.Gates, rng)
	eng := NewEngine(c)
	// Drive the reducing rules to their fixpoint.
	for round := 0; round < 50; round++ {
		sites := 0
		for _, r := range reducing {
			sites += eng.FullPass(r, rng.Intn(eng.Circuit().Len()))
			eng.Commit()
		}
		if sites == 0 {
			break
		}
	}
	round := func() {
		t.Helper()
		for _, r := range reducing {
			if n := eng.FullPass(r, rng.Intn(eng.Circuit().Len())); n != 0 {
				t.Fatalf("rule %s matched past its fixpoint", r.Name)
			}
			eng.Commit()
		}
	}
	// The last round found nothing, so a round over the same sequence is
	// skipped whole.
	st0 := eng.Stats()
	round()
	st1 := eng.Stats()
	if got := st1.RuleSkips - st0.RuleSkips; got != len(reducing) {
		t.Errorf("fixpoint rescan skipped %d of %d rule passes", got, len(reducing))
	}
	if st1.MatchCalls != st0.MatchCalls || st1.CacheSkips != st0.CacheSkips {
		t.Errorf("skipped passes visited anchors: %d match calls, %d cache skips",
			st1.MatchCalls-st0.MatchCalls, st1.CacheSkips-st0.CacheSkips)
	}
	// A new version with the same gates: the passes run again, and the
	// candidate index serves every verdict outside the splice's halo.
	region := circuit.GrowConvex(eng.Circuit(), eng.Circuit().Len()/2, 2, 0, nil)
	eng.ReplaceRegion(region, region.Extract(eng.Circuit()))
	eng.Commit()
	open := 0
	for _, w := range eng.verd {
		open += bits.OnesCount64(w)
	}
	st2 := eng.Stats()
	round()
	st3 := eng.Stats()
	if st3.RuleSkips != st2.RuleSkips {
		t.Errorf("a pass was skipped on a new version")
	}
	if calls := st3.MatchCalls - st2.MatchCalls; calls > open {
		t.Errorf("rescan after a one-region splice rematched %d anchors, more than the %d open verdicts",
			calls, open)
	}
	if gotSkips := st3.CacheSkips - st2.CacheSkips; gotSkips < len(reducing)*eng.Circuit().Len()/2 {
		t.Errorf("rescan skipped only %d anchors over %d rules × %d gates",
			gotSkips, len(reducing), eng.Circuit().Len())
	}
	t.Logf("stats: %+v", st3)
}

// TestSetCircuitSplicesEachStretch adopts a τ₀-style result that differs in
// two stretches far apart, one gate deleted near each end: SetCircuit must
// splice two windows, not one spanning both, so the verdicts recorded on
// the gates between them survive.
func TestSetCircuitSplicesEachStretch(t *testing.T) {
	all, err := RulesFor("nam")
	if err != nil {
		t.Fatal(err)
	}
	var reducing []*Rule
	for _, r := range all {
		if r.Delta() < 0 {
			reducing = append(reducing, r)
		}
	}
	rng := rand.New(rand.NewSource(11))
	eng := NewEngine(circuit.Random(6, 600, gateset.Nam.Gates, rng))
	// Drive the reducing rules to their fixpoint, so that each of their
	// verdicts is a recorded failure and no bit is set.
	for round := 0; round < 50; round++ {
		sites := 0
		for _, r := range reducing {
			sites += eng.FullPass(r, 0)
			eng.Commit()
		}
		if sites == 0 {
			break
		}
	}
	for i, w := range eng.verd {
		if w != 0 {
			t.Fatalf("verdict word %d is open at the fixpoint", i)
		}
	}
	n := eng.Circuit().Len()
	out := eng.Circuit().Clone()
	out.Gates = slices.Delete(out.Gates, n-10, n-9)
	out.Gates = slices.Delete(out.Gates, 10, 11)

	before := eng.Stats().Splices
	eng.SetCircuit(out)
	if got := eng.Stats().Splices - before; got != 2 {
		t.Fatalf("SetCircuit spliced %d windows, want one per changed stretch (2)", got)
	}
	for i, g := range eng.Circuit().Gates {
		if !sameBits(g, out.Gates[i]) {
			t.Fatalf("gate %d is %v, out's is %v", i, g, out.Gates[i])
		}
	}
	// The middle third is hundreds of gates from either window, far past
	// any rule's halo.
	mid := eng.verd[n/3*eng.words : 2*n/3*eng.words]
	for i, w := range mid {
		if w != 0 {
			t.Fatalf("verdict word %d between the windows was reopened", n/3*eng.words+i)
		}
	}
	checkCandidateIndex(t, eng)
}

// TestEngineRollbackRestoresExactly pins the rollback contract across a
// multi-splice transaction, including nested marks.
func TestEngineRollbackRestoresExactly(t *testing.T) {
	rules, err := RulesFor("ibmq20")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	c := circuit.Random(6, 80, gateset.IBMQ20.Gates, rng)
	eng := NewEngine(c)
	before := eng.Snapshot()

	m0 := eng.Mark()
	applied := 0
	for _, r := range rules {
		applied += eng.FullPass(r, 0)
	}
	if applied == 0 {
		t.Skip("no rule matched the random circuit")
	}
	mid := eng.Snapshot()
	m1 := eng.Mark()
	for _, r := range rules {
		eng.FullPass(r, eng.Circuit().Len()/2)
	}
	eng.Rollback(m1)
	if !circuit.Equal(eng.Circuit(), mid) {
		t.Fatal("inner rollback did not restore the mid-transaction state")
	}
	eng.Rollback(m0)
	if !circuit.Equal(eng.Circuit(), before) {
		t.Fatal("outer rollback did not restore the initial state")
	}
}

// TestEngineRollbackInvalidatesHalo pins the undo half of the invalidation
// contract on a hand-built case. A region replacement breaks a cx·cx pair
// whose anchor lies just outside the replaced window, and a pass then
// records a no-match verdict at that anchor. Rolling back restores the
// pair, so the undo splice must clear the verdict in its halo: the next
// pass has to find the match, as the from-scratch FullPass does.
func TestEngineRollbackInvalidatesHalo(t *testing.T) {
	cxcx := findRule(t, "nam", "nam/cx-cx")
	c := circuit.New(2)
	c.Append(gate.NewH(0), gate.NewCX(0, 1), gate.NewCX(0, 1))
	eng := NewEngine(c)

	mark := eng.Mark()
	repl := circuit.New(2)
	repl.Append(gate.NewX(1))
	eng.ReplaceRegion(&circuit.Region{Lo: 2, Hi: 2, Qubits: []int{0, 1}, Indices: []int{2}}, repl)
	if n := eng.FullPass(cxcx, 0); n != 0 {
		t.Fatalf("cx-cx matched %d sites after the pair was broken", n)
	}
	eng.Rollback(mark)
	if !circuit.Equal(eng.Circuit(), c) {
		t.Fatal("rollback did not restore the original circuit")
	}
	want, n1 := FullPass(c, cxcx, 0)
	if n1 != 1 {
		t.Fatalf("scratch FullPass replaced %d sites, want 1", n1)
	}
	if n2 := eng.FullPass(cxcx, 0); n2 != n1 || !circuit.Equal(eng.Circuit(), want) {
		t.Fatalf("engine replaced %d sites after the rollback, scratch %d: a stale no-match verdict survived the undo splice", n2, n1)
	}
}

// TestEngineDegenerate covers the empty-circuit and empty-replacement
// edges.
func TestEngineDegenerate(t *testing.T) {
	rules, err := RulesFor("nam")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(circuit.New(3))
	for _, r := range rules {
		if n := eng.FullPass(r, 0); n != 0 {
			t.Fatalf("rule %s matched the empty circuit", r.Name)
		}
	}
	eng.Reset(circuit.New(2))
	if eng.Circuit().NumQubits != 2 || eng.Circuit().Len() != 0 {
		t.Fatal("reset to an empty circuit failed")
	}
}

// TestRuleHaloDepth checks the compile-time halo sizing invariants for
// every rule in every library: the per-rule radius is at least 1, never
// exceeds the old global bound len(Pattern)+1 it replaced, and the
// per-wire extents sum to the pattern size.
func TestRuleHaloDepth(t *testing.T) {
	for name, rules := range AllLibraries() {
		for _, r := range rules {
			if d := r.HaloDepth(); d < 1 || d > len(r.Pattern)+1 {
				t.Errorf("%s/%s: halo depth %d outside [1, %d]", name, r.Name, d, len(r.Pattern)+1)
			}
			ext := r.WireExtents()
			if len(ext) != r.NumQubits {
				t.Errorf("%s/%s: %d wire extents for %d qubits", name, r.Name, len(ext), r.NumQubits)
				continue
			}
			for q, e := range ext {
				if e < 1 {
					t.Errorf("%s/%s: wire %d has extent %d, want ≥ 1 (unused pattern wire)", name, r.Name, q, e)
				}
				wires := 0
				for _, pg := range r.Pattern {
					for _, pq := range pg.Qubits {
						if pq == q {
							wires++
						}
					}
				}
				if e != wires {
					t.Errorf("%s/%s: wire %d extent %d, want %d", name, r.Name, q, e, wires)
				}
			}
		}
	}
	// A single-gate pattern has BFS eccentricity 0, so its halo radius is
	// exactly 1 — pin one known rule so the derivation can't silently grow.
	rules, err := RulesFor("nam")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if len(r.Pattern) == 1 {
			if d := r.HaloDepth(); d != 1 {
				t.Errorf("%s: single-gate pattern has halo depth %d, want 1", r.Name, d)
			}
		}
	}
}
