package rewrite

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// FuzzEngineMatchesScratch drives an Engine through a byte-chosen sequence
// of rule passes, region replacements, τ0 passes adopted by SetCircuit,
// marks, rollbacks, commits and resets, in lockstep with the pure
// FullPass pipeline on a shadow copy. After every step the two circuits
// must be equal, and the candidate index must be sound: a rule's bit is
// set only on gates of its first pattern gate's name, and wherever such a
// gate's bit is clear the matcher fails there.
//
// Input layout: library, flags, circuit seed, circuit size, then one op
// per byte with its operands in the bytes after it. Flag bit 0 compiles
// the library until there are more than 64 rules and runs each once, so
// the engine's verdicts span two words per gate.
func FuzzEngineMatchesScratch(f *testing.F) {
	libs := AllLibraries()
	names := make([]string, 0, len(libs))
	for name := range libs {
		names = append(names, name)
	}
	sort.Strings(names)
	script := []byte{0, 5, 17, 5, 1, 3, 40, 3, 9, 4, 0, 6, 0, 4, 1, 7, 2, 11, 60,
		4, 2, 5, 0, 1, 2, 3, 33, 6, 0, 8, 60, 3, 0, 4, 5, 5, 1, 7, 7, 2, 9, 9, 7}
	for li := range names {
		for _, flags := range []byte{0, 1} {
			f.Add(append([]byte{byte(li), flags, byte(7 + li), 80}, script...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		name := names[in.next()%len(names)]
		gs, err := gateset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		flags := in.next()
		rules := libs[name]
		seed := int64(in.next())
		size := in.next() % 100
		ref := circuit.Random(4, size, gs.Gates, rand.New(rand.NewSource(seed)))
		eng := NewEngine(ref)
		ref = ref.Clone()
		check := func(step int, what string) {
			t.Helper()
			if !circuit.Equal(eng.Circuit(), ref) {
				t.Fatalf("step %d (%s): engine diverged from the scratch pipeline\nengine: %s\nscratch: %s",
					step, what, eng.Circuit(), ref)
			}
			checkCandidateIndex(t, eng)
		}
		fullPass := func(step int, r *Rule, start int) {
			t.Helper()
			refOut, n1 := FullPass(ref, r, start)
			if n2 := eng.FullPass(r, start); n1 != n2 {
				t.Fatalf("step %d: rule %s replaced %d sites from %d, scratch %d", step, r.Name, n2, start, n1)
			}
			ref = refOut
		}
		if flags&1 != 0 {
			for len(rules) <= 64 {
				more, _ := RulesFor(name) // name comes from AllLibraries
				rules = append(rules, more...)
			}
			for _, r := range rules {
				fullPass(-1, r, 0)
			}
			eng.Commit()
			// A pass over a non-empty circuit gives its rule a cache (an
			// emptied circuit stays empty).
			if got := eng.Stats().RuleCaches; eng.Circuit().Len() > 0 && got != len(rules) {
				t.Fatalf("%d rule caches after warming %d rules", got, len(rules))
			}
			check(-1, "warm")
		}

		type markRec struct {
			mark int
			ref  *circuit.Circuit
		}
		var marks []markRec
		for step := 0; step < 48 && len(in) > 0; step++ {
			n := ref.Len()
			switch op := in.next() % 9; op {
			case 0, 1, 2:
				r := rules[in.next()%len(rules)]
				start := in.next()
				if n > 0 {
					start %= n
				}
				fullPass(step, r, start)
				check(step, "fullpass:"+r.Name)
			case 3:
				if n == 0 {
					continue
				}
				region := circuit.GrowConvex(ref, in.next()%n, 3, 0, nil)
				if region == nil || len(region.Indices) == 0 {
					continue
				}
				sub := region.Extract(ref)
				eng.ReplaceRegion(region, sub)
				ref = region.Replace(ref, sub)
				check(step, "region")
			case 4:
				pass := tau0Passes[in.next()%len(tau0Passes)]
				out, changed := pass.run(eng.Circuit(), gs)
				if changed == 0 {
					continue
				}
				eng.SetCircuit(out)
				ref, _ = pass.run(ref, gs)
				check(step, pass.name)
			case 5:
				marks = append(marks, markRec{eng.Mark(), ref})
			case 6:
				if len(marks) == 0 {
					continue
				}
				j := in.next() % len(marks)
				eng.Rollback(marks[j].mark)
				ref = marks[j].ref
				marks = marks[:j]
				check(step, "rollback")
			case 7:
				eng.Commit()
				marks = marks[:0]
			case 8:
				adopt := circuit.Random(4, in.next()%100, gs.Gates, rand.New(rand.NewSource(int64(in.next()))))
				eng.Reset(adopt)
				ref = adopt.Clone()
				marks = marks[:0]
				check(step, "reset")
			}
		}
	})
}

// fuzzBytes hands out a fuzz input one byte at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// checkCandidateIndex is the white-box soundness check of the engine's
// candidate index: the index is aligned with the gate list, every gate's
// kind is its name's, a rule's bit is set only on gates of its first
// pattern gate's name, and a clear bit on such a gate is a true no-match
// (checked against a fresh DAG and matcher scratch).
func checkCandidateIndex(t *testing.T, e *Engine) {
	t.Helper()
	c := e.Circuit()
	n := len(c.Gates)
	if len(e.kind) != n || len(e.verd) != n*e.words {
		t.Fatalf("index out of step with %d gates: %d kinds, %d verdict words (%d per gate)",
			n, len(e.kind), len(e.verd), e.words)
	}
	for i, g := range c.Gates {
		if k, ok := e.kindIDs[g.Name]; !ok || k != e.kind[i] {
			t.Fatalf("gate %d (%s) has kind %d, its name's is %d", i, g.Name, e.kind[i], k)
		}
	}
	d := circuit.BuildDAG(c)
	s := newMatchScratch()
	for r, rc := range e.caches {
		for i, g := range c.Gates {
			set := e.verd[i*e.words+rc.word]&rc.bit != 0
			switch candidate := g.Name == r.Pattern[0].Name; {
			case set && !candidate:
				t.Fatalf("rule %s: bit set at gate %d (%s), not a %s", r.Name, i, g.Name, r.Pattern[0].Name)
			case !set && candidate:
				if _, ok := matchAt(c, d, r, i, s); ok {
					t.Fatalf("rule %s: bit clear at gate %d, where it matches", r.Name, i)
				}
			}
		}
	}
}
