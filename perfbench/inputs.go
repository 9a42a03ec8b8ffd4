package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// Work sizes. Every run does a fixed amount of work, derived from the
// workload seed and from --seconds, never from a clock: --seconds scales
// the work by constants calibrated so that one workload takes about that
// long on a 2-vCPU VM.
const (
	// maxSampleGates caps the translated size of a sampled optimizer
	// circuit, so one circuit cannot dominate a run.
	maxSampleGates = 1200
	// nisqCircuitsPerSecond sizes the shared NISQ sample.
	nisqCircuitsPerSecond = 3.3
	// nisqIters is the fixed search length per circuit under full GUOQ.
	nisqIters = 200
	// rewriteIters is the fixed search length per circuit under
	// GUOQ-REWRITE, run rewriteRounds times.
	rewriteIters  = 700
	rewriteRounds = 3
	// guoqdOpsPerSecond sizes the guoqd request mix.
	guoqdOpsPerSecond = 340
	// setups is how often an optimizer run repeats its set-up, and
	// guoqdSetups how often guoqd-rw reopens its coordinator; setup_s is
	// the median.
	setups      = 21
	guoqdSetups = 5
	// guoqdParts is how many consecutive parts guoqd-rw's timed loop runs
	// in, with a calibration after each (see calibratePhase).
	guoqdParts = 3
	// epsilon is the approximation budget every workload runs under.
	epsilon = 1e-8
	// publishesPerFresh is how many improving exchange publishes guoqd-rw
	// sends per fresh submit. A guoqd client submits a circuit once, then
	// exchanges every 64 iterations and publishes its first exchange and
	// each improved best; traced nisq-guoq runs at --seconds 30 counted
	// 1.34 such publishes per circuit over seeds 1 to 3 (the "exchange
	// publishes per circuit" note of a traced run).
	publishesPerFresh = 1.34
)

// plan is everything a workload process receives: the generated inputs
// and the work sizes. It reaches the child process as JSON on stdin.
type plan struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Rounds   int    `json:"rounds"`
	Setups   int    `json:"setups"`
	// DeadlineBound marks a workload whose timed work mostly waits on
	// wall-clock deadlines, so its work timings follow the calibration only
	// in part (see deadlineElasticity).
	DeadlineBound bool           `json:"deadline_bound,omitempty"`
	Circuits      []circuitInput `json:"circuits,omitempty"`
	Guoqd         *guoqdPlan     `json:"guoqd,omitempty"`
	// WorkDir holds the run's scratch files (guoqd data directory, span
	// dumps); the parent removes what it does not keep.
	WorkDir string `json:"work_dir"`
}

// circuitInput is one optimizer input: a suite circuit in the universal
// vocabulary, the gate set and objective to optimize it for, and its
// search seed and length.
type circuitInput struct {
	Name      string `json:"name"`
	QASM      string `json:"qasm"`
	GateSet   string `json:"gate_set"`
	Objective string `json:"objective"`
	Seed      int64  `json:"seed"`
	Iters     int    `json:"iters"`
}

// guoqdPlan is the guoqd-rw request mix. Every circuit of both suites is
// a cache key; clients submit it padded with Pad redundant units, and
// improving publishes strip one unit at a time.
type guoqdPlan struct {
	Keys    []keyInput   `json:"keys"`
	Pad     int          `json:"pad"`
	Clients []clientPlan `json:"clients"`
}

// keyInput is one cache key's base circuit, already in its target gate
// set.
type keyInput struct {
	Name      string `json:"name"`
	QASM      string `json:"qasm"`
	Target    string `json:"target"`
	Objective string `json:"objective"`
}

// clientPlan is one client's closed-loop request sequence. Ops encode the
// kind in the low two bits (opRead, opPublish, opFresh) and the key or
// fresh-circuit index above them. Client c owns the keys k with k%2 == c,
// so the last value published for a key is always known to its reader.
type clientPlan struct {
	Ops        []int32 `json:"ops"`
	FreshSeeds []int64 `json:"fresh_seeds"`
}

const (
	opRead = iota
	opPublish
	opFresh
)

// numClients is the number of concurrent guoqd clients, one per CPU of
// the target VM.
const numClients = 2

// makePlan generates a workload's inputs from its seed.
func makePlan(workload string, seed int64, seconds int) (*plan, error) {
	p := &plan{Workload: workload, Rounds: 1, Setups: setups}
	rng := rand.New(rand.NewSource(seed))
	n := max(2, int(float64(seconds)*nisqCircuitsPerSecond+0.5))
	switch workload {
	case "nisq-guoq":
		nisq, err := sample(benchmarks.Suite(), gateset.IBMEagle, "2q", n, nisqIters, rng)
		if err != nil {
			return nil, err
		}
		p.Circuits = nisq
		// About three quarters of the search is 3-qubit synthesis calls,
		// half of which run into their 500 ms wall-clock deadline.
		p.DeadlineBound = true
	case "suite-rewrite":
		// The same draws as nisq-guoq first, so both workloads see the
		// same NISQ circuits under the same search seeds.
		nisq, err := sample(benchmarks.Suite(), gateset.IBMEagle, "2q", n, rewriteIters, rng)
		if err != nil {
			return nil, err
		}
		ct, err := sample(benchmarks.CliffordTSuite(), gateset.CliffordT, "t", n, rewriteIters, rng)
		if err != nil {
			return nil, err
		}
		p.Circuits = append(nisq, ct...)
		p.Rounds = rewriteRounds
	case "guoqd-rw":
		g, err := guoqdMix(seconds*guoqdOpsPerSecond, rng)
		if err != nil {
			return nil, err
		}
		p.Guoqd = g
		p.Setups = guoqdSetups
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return p, nil
}

// sample draws n circuits from suite by stratified sampling: circuits
// within maxSampleGates are sorted by family and then by translated size,
// cut into n equal strata, and one circuit is drawn from each. Every seed
// thus gets the same mix of families and sizes; how much work a circuit
// takes depends mostly on both. Each draw also gets a search seed.
func sample(suite []benchmarks.Named, gs *gateset.GateSet, objective string, n, iters int, rng *rand.Rand) ([]circuitInput, error) {
	translated, err := benchmarks.ForGateSet(suite, gs)
	if err != nil {
		return nil, err
	}
	var pool []int
	for i, b := range translated {
		if b.Circuit.Len() <= maxSampleGates {
			pool = append(pool, i)
		}
	}
	sort.SliceStable(pool, func(a, b int) bool {
		x, y := translated[pool[a]], translated[pool[b]]
		if x.Family != y.Family {
			return x.Family < y.Family
		}
		return x.Circuit.Len() < y.Circuit.Len()
	})
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]circuitInput, 0, n)
	for s := 0; s < n; s++ {
		lo, hi := s*len(pool)/n, (s+1)*len(pool)/n
		b := suite[pool[lo+rng.Intn(hi-lo)]]
		out = append(out, circuitInput{
			Name:      b.Name,
			QASM:      b.Circuit.WriteQASM(),
			GateSet:   gs.Name,
			Objective: objective,
			Seed:      rng.Int63(),
			Iters:     iters,
		})
	}
	return out, nil
}

// guoqdMix builds the guoqd-rw plan: every circuit of both suites as a
// key, and per client a shuffled deck of ops with exactly three reads per
// write, the writes split publishesPerFresh to one between improving
// publishes and fresh submits.
func guoqdMix(ops int, rng *rand.Rand) (*guoqdPlan, error) {
	g := &guoqdPlan{}
	for _, s := range []struct {
		suite     []benchmarks.Named
		gs        *gateset.GateSet
		objective string
	}{
		{benchmarks.Suite(), gateset.IBMEagle, "2q"},
		{benchmarks.CliffordTSuite(), gateset.CliffordT, "t"},
	} {
		translated, err := benchmarks.ForGateSet(s.suite, s.gs)
		if err != nil {
			return nil, err
		}
		for _, b := range translated {
			g.Keys = append(g.Keys, keyInput{Name: b.Name, QASM: b.Circuit.WriteQASM(), Target: s.gs.Name, Objective: s.objective})
		}
	}
	perClient := ops / numClients
	writes := perClient / 4
	publishes := int(float64(writes)*publishesPerFresh/(1+publishesPerFresh) + 0.5)
	fresh := writes - publishes
	reads := perClient - writes
	keysPerClient := len(g.Keys) / numClients
	// One publish per key happens before timing; the timed publishes go
	// round-robin over the client's keys, so Pad bounds every key's chain.
	g.Pad = 1 + (publishes+keysPerClient-1)/keysPerClient
	for c := 0; c < numClients; c++ {
		var owned []int32
		for k := c; k < len(g.Keys); k += numClients {
			owned = append(owned, int32(k))
		}
		order := rng.Perm(len(owned))
		cp := clientPlan{Ops: make([]int32, 0, perClient)}
		for i := 0; i < reads; i++ {
			cp.Ops = append(cp.Ops, opRead|owned[rng.Intn(len(owned))]<<2)
		}
		for i := 0; i < publishes; i++ {
			cp.Ops = append(cp.Ops, opPublish|owned[order[i%len(order)]]<<2)
		}
		for i := 0; i < fresh; i++ {
			cp.Ops = append(cp.Ops, opFresh|int32(i)<<2)
			cp.FreshSeeds = append(cp.FreshSeeds, rng.Int63())
		}
		rng.Shuffle(len(cp.Ops), func(i, j int) { cp.Ops[i], cp.Ops[j] = cp.Ops[j], cp.Ops[i] })
		g.Clients = append(g.Clients, cp)
	}
	return g, nil
}
