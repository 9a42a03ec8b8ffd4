package rewrite

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// FuzzEngineMatchesScratch drives an Engine through a byte-chosen sequence
// of rule passes, region replacements, τ0 passes through ApplyPass, marks,
// rollbacks, commits and resets, in lockstep with the pure FullPass
// pipeline on a shadow copy. After every step the two circuits must be
// equal, and the candidate index must be sound: a rule's bit is set only
// on gates of its first pattern gate's name, and wherever such a gate's
// bit is clear the matcher fails there. The versions must be sound too: a
// version that recurs names a bit-identical gate sequence, Rollback(mark)
// restores the version seen at Mark, forward splices and Reset never
// reuse a number, and every pass the engine would skip changes nothing
// when run stateless on the current circuit.
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
		seqs := map[uint64]string{eng.version: gateBits(eng.Circuit())}
		last := eng.version
		// check runs the checks after a step; restored, when non-zero, is
		// the version the step must bring back.
		check := func(step int, what string, restored uint64) {
			t.Helper()
			if !circuit.Equal(eng.Circuit(), ref) {
				t.Fatalf("step %d (%s): engine diverged from the scratch pipeline\nengine: %s\nscratch: %s",
					step, what, eng.Circuit(), ref)
			}
			checkCandidateIndex(t, eng)
			v, seq := eng.version, gateBits(eng.Circuit())
			prev, seen := seqs[v]
			switch {
			case restored != 0 && v != restored:
				t.Fatalf("step %d (%s): version %d, want %d from the mark", step, what, v, restored)
			case restored == 0 && v != last && seen:
				t.Fatalf("step %d (%s): a forward step reused version %d", step, what, v)
			case seen && prev != seq:
				t.Fatalf("step %d (%s): version %d names two gate sequences", step, what, v)
			}
			seqs[v], last = seq, v
			checkSkipsSound(t, eng)
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
			check(-1, "warm", 0)
		}

		type markRec struct {
			mark    int
			version uint64
			ref     *circuit.Circuit
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
				check(step, "fullpass:"+r.Name, 0)
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
				check(step, "region", 0)
			case 4:
				pass := tau0Passes[in.next()%len(tau0Passes)]
				refOut, n1 := pass.Run(ref, gs)
				if n2 := eng.ApplyPass(pass, gs); n1 != n2 {
					t.Fatalf("step %d: %s changed %d, scratch %d", step, pass.Name, n2, n1)
				}
				ref = refOut
				check(step, pass.Name, 0)
			case 5:
				marks = append(marks, markRec{eng.Mark(), eng.version, ref})
			case 6:
				if len(marks) == 0 {
					continue
				}
				j := in.next() % len(marks)
				eng.Rollback(marks[j].mark)
				ref = marks[j].ref
				check(step, "rollback", marks[j].version)
				marks = marks[:j]
			case 7:
				eng.Commit()
				marks = marks[:0]
			case 8:
				adopt := circuit.Random(4, in.next()%100, gs.Gates, rand.New(rand.NewSource(int64(in.next()))))
				eng.Reset(adopt)
				ref = adopt.Clone()
				marks = marks[:0]
				check(step, "reset", 0)
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

// gateBits renders a gate sequence exactly: names, qubits and the bits of
// every parameter.
func gateBits(c *circuit.Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d;", c.NumQubits)
	for _, g := range c.Gates {
		fmt.Fprintf(&b, "%s%v", g.Name, g.Qubits)
		for _, p := range g.Params {
			fmt.Fprintf(&b, ",%x", math.Float64bits(p))
		}
		b.WriteByte(';')
	}
	return b.String()
}

// checkSkipsSound checks every pass the engine would skip now, a rule or
// τ0 pass that found nothing at the current version: run stateless on the
// current circuit, it must change nothing.
func checkSkipsSound(t *testing.T, e *Engine) {
	t.Helper()
	c := e.Circuit()
	for r, rc := range e.caches {
		if rc.quiet != e.version || c.Len() == 0 {
			continue
		}
		if _, n := FullPass(c, r, 0); n != 0 {
			t.Fatalf("rule %s is skipped at version %d, yet matches %d sites", r.Name, e.version, n)
		}
	}
	for k, v := range e.quiet {
		if v != e.version {
			continue
		}
		if _, n := k.pass.Run(c, k.gs); n != 0 {
			t.Fatalf("%s for %s is skipped at version %d, yet changes %d", k.pass.Name, k.gs.Name, e.version, n)
		}
	}
}
