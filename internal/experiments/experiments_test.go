package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// tinyConfig keeps experiment tests fast: a handful of circuits, tiny
// budgets. Shape assertions stay loose at this scale — the full-budget runs
// live in bench_test.go and EXPERIMENTS.md.
func tinyConfig() Config {
	return Config{
		Budget:     40 * time.Millisecond,
		Trials:     1,
		SuiteLimit: 6,
		Epsilon:    1e-8,
		Seed:       1,
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if math.Abs(s.Mean-2) > 1e-12 || s.N != 3 {
		t.Fatalf("Summarize mean = %v", s)
	}
	if s.CI95 <= 0 {
		t.Fatal("CI should be positive for spread data")
	}
	if s := Summarize([]float64{5}); s.CI95 != 0 || s.Mean != 5 {
		t.Fatal("single-sample stats wrong")
	}
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty stats wrong")
	}
}

func TestCompareVerdicts(t *testing.T) {
	if Compare(0.5, 0.3) != Better || Compare(0.3, 0.5) != Worse || Compare(0.4, 0.4) != Match {
		t.Fatal("Compare verdicts wrong")
	}
}

func TestMetrics(t *testing.T) {
	orig := circuit.New(2)
	orig.Append(gate.NewCX(0, 1), gate.NewCX(0, 1), gate.NewT(0), gate.NewT(0))
	opt1 := circuit.New(2)
	opt1.Append(gate.NewCX(0, 1), gate.NewT(0))
	if v := TwoQubitReduction().Eval(orig, opt1); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("2q reduction = %g", v)
	}
	if v := TReduction().Eval(orig, opt1); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("T reduction = %g", v)
	}
	// Zero-count originals yield 0, not NaN.
	empty := circuit.New(1)
	if v := TwoQubitReduction().Eval(empty, empty); v != 0 {
		t.Fatal("empty reduction should be 0")
	}
}

func TestFig10SmallRun(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig()
	cfg.Out = &buf
	sums, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("Fig10 returned %d summaries", len(sums))
	}
	for _, s := range sums {
		if s.Better+s.Match+s.Worse != 6 {
			t.Fatalf("tally doesn't cover the suite: %+v", s)
		}
	}
	if !strings.Contains(buf.String(), "GUOQ better on") {
		t.Fatal("report missing summary line")
	}
}

func TestFig15FullSuite(t *testing.T) {
	hs, err := Fig15(Config{Out: nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 5 {
		t.Fatalf("Fig15 covered %d gate sets", len(hs))
	}
	for _, h := range hs {
		total := 0
		for _, n := range h.Buckets {
			total += n
		}
		if total != 247 {
			t.Fatalf("%s histogram covers %d benchmarks", h.GateSet, total)
		}
	}
}

func TestFig7ProducesSeries(t *testing.T) {
	cfg := tinyConfig()
	cfg.Budget = 30 * time.Millisecond
	series, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 { // 2 benchmarks × 3 approaches
		t.Fatalf("Fig7 returned %d series", len(series))
	}
	for _, s := range series {
		// Counts must be non-increasing (best-so-far).
		for i := 1; i < len(s.Counts); i++ {
			if s.Counts[i] > s.Counts[i-1] {
				t.Fatalf("%s/%s: best-so-far series increased", s.Bench, s.Approach)
			}
		}
	}
}

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(Config{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ibmq20", "ibm-eagle", "ionq", "nam", "cliffordt"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table2 missing %s", want)
		}
	}
	buf.Reset()
	if err := Table3(Config{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "quarl") {
		t.Fatal("Table3 missing quarl")
	}
}

// subsample keeps suite order and returns limit distinct circuits (the
// whole suite for a limit of 0 or one at or past its length), and the
// static shards of selectSuite each keep suite order and together cover
// the subsample exactly once.
func TestSelectSuiteShards(t *testing.T) {
	for _, size := range []int{1, 12, 247} {
		suite := make([]benchmarks.Named, size)
		for i := range suite {
			suite[i].Name = fmt.Sprint(i)
		}
		for _, limit := range []int{0, 12, 40, 247, 300} {
			t.Run(fmt.Sprintf("size%d/limit%d", size, limit), func(t *testing.T) {
				sub := subsample(suite, limit)
				want := limit
				if limit == 0 || limit >= size {
					want = size
				}
				if len(sub) != want {
					t.Fatalf("subsample kept %d circuits, want %d", len(sub), want)
				}
				pos := map[string]int{}
				for i, b := range sub {
					idx, _ := strconv.Atoi(b.Name)
					if i > 0 && idx <= pos[sub[i-1].Name] {
						t.Fatalf("subsample out of order or repeated at %d: %v", i, names(sub))
					}
					pos[b.Name] = idx
				}
				for n := 1; n <= 7; n++ {
					seen := map[string]int{}
					for i := 0; i < n; i++ {
						cfg := Config{SuiteLimit: limit, Shard: i, Shards: n}
						shard := cfg.selectSuite(suite)
						for j, b := range shard {
							if j > 0 && pos[b.Name] <= pos[shard[j-1].Name] {
								t.Fatalf("shard %d/%d out of suite order: %v", i, n, names(shard))
							}
							seen[b.Name]++
						}
					}
					for _, b := range sub {
						if seen[b.Name] != 1 {
							t.Fatalf("n %d: circuit %s in %d shards, want 1", n, b.Name, seen[b.Name])
						}
					}
					if len(seen) != len(sub) {
						t.Fatalf("n %d: shards hold %d circuits, subsample %d", n, len(seen), len(sub))
					}
				}
			})
		}
	}
}

func names(suite []benchmarks.Named) []string {
	var out []string
	for _, b := range suite {
		out = append(out, b.Name)
	}
	return out
}

// Two static shards of a bench sweep run every circuit of the subsample
// exactly once, each within ε and never worse than its input.
func TestBenchStaticShards(t *testing.T) {
	byName := map[string]int{}
	for i := 0; i < 2; i++ {
		cfg := Config{Budget: 20 * time.Millisecond, SuiteLimit: 4, Shard: i, Shards: 2, Epsilon: 1e-8, Seed: 1}
		worker := fmt.Sprintf("shard-%d", i)
		rs, err := Bench(cfg, BenchOptions{Worker: worker})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			byName[r.Name]++
			if r.Worker != worker {
				t.Fatalf("%s: worker %q, want %q", r.Name, r.Worker, worker)
			}
			if r.Err > cfg.Epsilon {
				t.Fatalf("%s: ε bound %g exceeds budget %g", r.Name, r.Err, cfg.Epsilon)
			}
			if r.TwoQubitAfter > r.TwoQubitBefore {
				t.Fatalf("%s: two-qubit count regressed %d -> %d", r.Name, r.TwoQubitBefore, r.TwoQubitAfter)
			}
		}
	}
	suite, err := benchmarks.SuiteFor(gateset.IBMQ20)
	if err != nil {
		t.Fatal(err)
	}
	want := subsample(suite, 4)
	if len(byName) != len(want) {
		t.Fatalf("shards ran %v, want the %d circuits %v", byName, len(want), names(want))
	}
	for _, b := range want {
		if byName[b.Name] != 1 {
			t.Fatalf("circuit %s ran %d times, want exactly 1 (counts: %v)", b.Name, byName[b.Name], byName)
		}
	}
}

// The huge experiment behind BENCH_huge.json, at toy scale: one row per
// tool in a fixed order, every row never worse than the generated input
// and within ε, and the JSON snapshot decodes back to the returned report
// (the perf gate reads it that way).
func TestHugeSmallRun(t *testing.T) {
	cfg := tinyConfig()
	var js bytes.Buffer
	rep, err := Huge(cfg, 2, 6, 240, &js)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InputGates != 240 || rep.Workers != 2 || rep.BudgetMS != cfg.Budget.Milliseconds() {
		t.Fatalf("report header %+v does not echo the configuration", rep)
	}
	var tools []string
	for _, row := range rep.Rows {
		tools = append(tools, row.Tool)
		if row.Gates > rep.InputGates || row.TwoQubit > rep.InputTwoQubit {
			t.Errorf("%s: %d gates / %d 2q from %d / %d, worse than the input",
				row.Tool, row.Gates, row.TwoQubit, rep.InputGates, rep.InputTwoQubit)
		}
		if row.Error > cfg.Epsilon {
			t.Errorf("%s: error %g exceeds ε %g", row.Tool, row.Error, cfg.Epsilon)
		}
	}
	if want := []string{"guoq", "portfolio", "partition-parallel"}; !reflect.DeepEqual(tools, want) {
		t.Fatalf("tools %v, want %v", tools, want)
	}
	var back HugeReport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Fatalf("JSON snapshot decodes to %+v, want %+v", back, *rep)
	}
}
