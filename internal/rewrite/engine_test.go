package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// TestEngineMatchesScratchFullPass is the metamorphic contract of the
// incremental engine: over long random rule sequences on random circuits —
// every rule library, wrap-around anchors, interleaved region replacements
// and whole-circuit cleanups, with both committed and rolled-back steps —
// the engine's circuit must stay bit-identical to the one produced by the
// pure, from-scratch FullPass pipeline on a shadow copy.
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
					switch op := rng.Intn(10); {
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
					case op < 9: // whole-circuit cleanup through the engine
						out, changed := CleanupChanged(eng.Snapshot(), name)
						if changed == 0 {
							continue
						}
						mark := eng.Mark()
						eng.SetCircuit(out)
						if rng.Intn(3) == 0 {
							eng.Rollback(mark)
						} else {
							eng.Commit()
							refOut, _ := CleanupChanged(ref, name)
							ref = refOut
						}
						check(step, "cleanup")
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

// TestEngineCacheEngages asserts the negative cache short-circuits rescans
// in its two production shapes. First, the fixpoint shape (fixed-pass
// pipelines, warm start): once the reducing rules stop matching, another
// full round must rematch nothing — every anchor verdict is served from
// the cache. Second, the reject shape (a GUOQ candidate whose pass found
// no matches): rescanning an unchanged circuit with the same rule costs
// zero match attempts.
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
	st0 := eng.Stats()
	// One more full round over the fixpoint: all anchors must come from the
	// cache.
	for _, r := range reducing {
		if n := eng.FullPass(r, rng.Intn(eng.Circuit().Len())); n != 0 {
			t.Fatalf("rule %s matched past its fixpoint", r.Name)
		}
		eng.Commit()
	}
	st1 := eng.Stats()
	if st1.MatchCalls != st0.MatchCalls {
		t.Errorf("fixpoint rescan rematched %d anchors, want 0", st1.MatchCalls-st0.MatchCalls)
	}
	if gotSkips := st1.CacheSkips - st0.CacheSkips; gotSkips < len(reducing)*eng.Circuit().Len()/2 {
		t.Errorf("fixpoint rescan skipped only %d anchors over %d rules × %d gates",
			gotSkips, len(reducing), eng.Circuit().Len())
	}
	t.Logf("stats: %+v", st1)
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

func TestMultiSpliceBytes(t *testing.T) {
	mkRepl := func(k int) []gate.Gate { return make([]gate.Gate, k) }
	cases := []struct {
		in   string
		ws   []circuit.SpliceWindow
		want string
	}{
		{"11111", []circuit.SpliceWindow{{Lo: 1, Hi: 3, Repl: mkRepl(1)}}, "101"},
		{"11111", []circuit.SpliceWindow{{Lo: 1, Hi: 3, Repl: mkRepl(5)}}, "1000001"},
		{"11111", []circuit.SpliceWindow{{Lo: 2, Hi: 1, Repl: mkRepl(2)}}, "1100111"}, // pure insertion
		{"11111", []circuit.SpliceWindow{{Lo: 0, Hi: 4}}, ""},
		{"111111", []circuit.SpliceWindow{{Lo: 0, Hi: 1, Repl: mkRepl(1)}, {Lo: 3, Hi: 3, Repl: mkRepl(2)}}, "010011"},
	}
	e := NewEngine(circuit.New(1))
	for i, tc := range cases {
		b := make([]byte, len(tc.in))
		for j := range tc.in {
			b[j] = tc.in[j] - '0'
		}
		got := e.multiSpliceBytes(b, tc.ws)
		s := ""
		for _, x := range got {
			s += fmt.Sprint(x)
		}
		if s != tc.want {
			t.Errorf("case %d: got %q, want %q", i, s, tc.want)
		}
	}
}
