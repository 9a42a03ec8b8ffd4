package baselines

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/rewrite"
)

// TestFixedPassSuiteFingerprint pins the three fixed-pass profiles' output
// on every 8th circuit of the ibm-eagle and Clifford+T suites: a hash of
// the outputs' QASM, per profile. The pipelines are deterministic, so a
// change to a pass or to the engine under them that moves any output
// fails here.
func TestFixedPassSuiteFingerprint(t *testing.T) {
	want := map[string]string{
		"qiskit": "cf8b8e364af481a2",
		"tket":   "d75342943f1e5918",
		"voqc":   "76609794b6f1ab5d",
	}
	for _, f := range []*FixedPass{NewQiskit(), NewTket(), NewVOQC()} {
		h := fnv.New64a()
		for _, gs := range []*gateset.GateSet{gateset.IBMEagle, gateset.CliffordT} {
			suite, err := benchmarks.SuiteFor(gs)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(suite); i += 8 {
				out := f.Optimize(context.Background(), suite[i].Circuit, gs, opt.TwoQubitCost(), 1)
				io.WriteString(h, out.WriteQASM())
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[f.Tool] {
			t.Errorf("%s: output fingerprint %s, want %s", f.Tool, got, want[f.Tool])
		}
	}
}

// TestFixedPassOneCachePerRule: a pipeline compiles its rule library once
// per run, so its engine holds at most one match cache per library rule
// however many rounds and rule passes run.
func TestFixedPassOneCachePerRule(t *testing.T) {
	for _, gs := range []*gateset.GateSet{gateset.IBMEagle, gateset.CliffordT} {
		suite, err := benchmarks.SuiteFor(gs)
		if err != nil {
			t.Fatal(err)
		}
		rules, err := rewrite.RulesFor(gs.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*FixedPass{NewQiskit(), NewTket(), NewVOQC()} {
			st := f.run(context.Background(), suite[40].Circuit, gs).Stats()
			if st.RuleCaches == 0 || st.RuleCaches > len(rules) {
				t.Errorf("%s on %s: %d rule caches for a %d-rule library", f.Tool, gs.Name, st.RuleCaches, len(rules))
			}
		}
	}
}
