package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gateset"
	"github.com/guoq-dev/guoq/internal/linalg"
	"github.com/guoq-dev/guoq/internal/opt"
	"github.com/guoq-dev/guoq/internal/rewrite"
	"github.com/guoq-dev/guoq/internal/synth"
	"github.com/guoq-dev/guoq/internal/synth/numeric"
)

// spanKind names the layer a span times.
type spanKind uint8

const (
	spanCircuit spanKind = iota // one circuit's whole search
	spanRules                   // a rewrite-rule transformation call
	spanCleanup
	spanFuse1Q
	spanPhaseFold
	spanResynth   // a resynthesis transformation call
	spanOtherT    // any other transformation
	spanCost      // one cost evaluation
	spanNumeric2Q // a numeric synthesizer call on a 2-qubit unitary
	spanNumeric3Q
	spanOtherSynth
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"circuit", "rules", "cleanup", "fuse1q", "phasefold", "resynth", "other",
	"cost", "numeric_2q", "numeric_3q", "synth_other",
}

// span is one timed call. Parent is the index of the enclosing span, -1
// at the top. OK records whether the call produced something (a
// transformation applied, a synthesis succeeded).
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32
	kind       spanKind
	ok         bool
}

// tracer records nested spans from one goroutine: the optimizer runs one
// synchronous search, so a stack of open spans gives every span its
// parent. Spans stay in memory until the run ends.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int32
	synths []*timedSynth
	// results are the traced searches' statistics, in run order.
	results []*opt.Result
	// exchanges are the traced searches' exchange counters, in run order.
	exchanges []*exchangeCounter
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(k spanKind) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), parent: parent, kind: k})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32, ok bool) {
	t.spans[id].end = int64(time.Since(t.epoch))
	t.spans[id].ok = ok
	t.open = t.open[:len(t.open)-1]
}

// layerTotals aggregates spans per kind: calls, calls that produced
// something, total time, and self time (duration minus the time of direct
// children, which nest strictly on one goroutine).
type layerTotals struct {
	calls, ok  [numSpanKinds]int
	total, own [numSpanKinds]time.Duration
}

func (t *tracer) totals() layerTotals {
	var lt layerTotals
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		lt.calls[s.kind]++
		if s.ok {
			lt.ok[s.kind]++
		}
		lt.total[s.kind] += time.Duration(s.end - s.start)
		lt.own[s.kind] += time.Duration(s.end - s.start - child[i])
	}
	return lt
}

// dump writes the spans as tab-separated lines (id, parent, kind, ok,
// start ns, end ns).
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tkind\tok\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%t\t%d\t%d\n", i, s.parent, spanNames[s.kind], s.ok, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedCost wraps a cost function in a cost span.
func (t *tracer) tracedCost(c opt.Cost) opt.Cost {
	return func(x *circuit.Circuit) float64 {
		id := t.begin(spanCost)
		v := c(x)
		t.end(id, true)
		return v
	}
}

// tracedRegistry builds the default registry's transformations and wraps
// each in a timing decorator; resynthesis transformations also get their
// synthesizer wrapped. The wrapped set keeps names, order and every
// optional interface, so the search takes the same code paths.
func (t *tracer) tracedRegistry() *opt.Registry {
	return opt.NewRegistry(func(gs *gateset.GateSet, io opt.InstantiateOptions) ([]opt.Transformation, error) {
		ts, err := opt.DefaultRegistry().Build(gs, io)
		if err != nil {
			return nil, err
		}
		synths := map[synth.Synthesizer]synth.Synthesizer{}
		for i, x := range ts {
			if rt, ok := x.(*opt.ResynthTransformation); ok {
				cp := *rt
				if synths[rt.Synth] == nil {
					synths[rt.Synth] = t.wrapSynth(rt.Synth)
				}
				cp.Synth = synths[rt.Synth]
				x = &cp
			}
			ts[i] = t.wrapTransformation(x)
		}
		return ts, nil
	})
}

// checkRegistry is the decorators' self-check: on every gate set the
// workloads use, the wrapped registry must build the same transformation
// names in the same order as opt.DefaultRegistry(), and each wrapper must
// implement exactly the optional interfaces of what it wraps. It returns
// one message per mismatch.
func checkRegistry(t *tracer) []string {
	var bad []string
	io := opt.InstantiateOptions{EpsilonF: epsilon, MaxQubits: 3, SynthTime: 500 * time.Millisecond, WithPhaseFold: true}
	for _, gs := range []*gateset.GateSet{gateset.IBMEagle, gateset.CliffordT} {
		want, err := opt.DefaultRegistry().Build(gs, io)
		if err != nil {
			return append(bad, err.Error())
		}
		got, err := t.tracedRegistry().Build(gs, io)
		if err != nil {
			return append(bad, err.Error())
		}
		if len(got) != len(want) {
			bad = append(bad, fmt.Sprintf("%s: wrapped registry builds %d transformations, default %d", gs.Name, len(got), len(want)))
			continue
		}
		for i := range want {
			if got[i].Name() != want[i].Name() {
				bad = append(bad, fmt.Sprintf("%s: transformation %d is %q wrapped, %q by default", gs.Name, i, got[i].Name(), want[i].Name()))
			}
			if a, b := optionalInterfaces(got[i]), optionalInterfaces(want[i]); a != b {
				bad = append(bad, fmt.Sprintf("%s: %s wrapper implements %s, original %s", gs.Name, want[i].Name(), a, b))
			}
			if rt, ok := want[i].(*opt.ResynthTransformation); ok {
				w := got[i].(interface{ unwrap() opt.Transformation }).unwrap().(*opt.ResynthTransformation)
				if _, a := w.Synth.(synth.ContextSynthesizer); a != isContextSynth(rt.Synth) {
					bad = append(bad, fmt.Sprintf("%s: synthesizer wrapper changes ContextSynthesizer", gs.Name))
				}
				if w.Synth.Name() != rt.Synth.Name() {
					bad = append(bad, fmt.Sprintf("%s: synthesizer wrapper renames %q", gs.Name, rt.Synth.Name()))
				}
			}
		}
	}
	return bad
}

func isContextSynth(s synth.Synthesizer) bool {
	_, ok := s.(synth.ContextSynthesizer)
	return ok
}

// optionalInterfaces lists which of the search loop's optional
// application paths x implements, as a 3-letter mask (E = EngineApplier,
// C = ContextApplier, X = EngineContextApplier).
func optionalInterfaces(x opt.Transformation) string {
	mask := []byte("---")
	if _, ok := x.(opt.EngineApplier); ok {
		mask[0] = 'E'
	}
	if _, ok := x.(opt.ContextApplier); ok {
		mask[1] = 'C'
	}
	if _, ok := x.(opt.EngineContextApplier); ok {
		mask[2] = 'X'
	}
	return string(mask)
}

// timedT is the base decorator: Transformation only. The embedding types
// below add the optional interfaces the wrapped value has, since the
// search loop picks its application path by type assertion and a missing
// method would silently move it onto the copy-the-circuit path.
type timedT struct {
	inner opt.Transformation
	kind  spanKind
	tr    *tracer
}

func (d *timedT) Name() string               { return d.inner.Name() }
func (d *timedT) Epsilon() float64           { return d.inner.Epsilon() }
func (d *timedT) Slow() bool                 { return d.inner.Slow() }
func (d *timedT) unwrap() opt.Transformation { return d.inner }
func (d *timedT) Apply(c *circuit.Circuit, eps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	id := d.tr.begin(d.kind)
	out, e, ok := d.inner.Apply(c, eps, rng)
	d.tr.end(id, ok)
	return out, e, ok
}

type engineFwd struct{ d *timedT }

func (f engineFwd) ApplyEngine(e *rewrite.Engine, eps float64, rng *rand.Rand) (float64, bool) {
	id := f.d.tr.begin(f.d.kind)
	x, ok := f.d.inner.(opt.EngineApplier).ApplyEngine(e, eps, rng)
	f.d.tr.end(id, ok)
	return x, ok
}

type contextFwd struct{ d *timedT }

func (f contextFwd) ApplyContext(ctx context.Context, c *circuit.Circuit, eps float64, rng *rand.Rand) (*circuit.Circuit, float64, bool) {
	id := f.d.tr.begin(f.d.kind)
	out, x, ok := f.d.inner.(opt.ContextApplier).ApplyContext(ctx, c, eps, rng)
	f.d.tr.end(id, ok)
	return out, x, ok
}

type engineContextFwd struct{ d *timedT }

func (f engineContextFwd) ApplyEngineContext(ctx context.Context, e *rewrite.Engine, eps float64, rng *rand.Rand) (float64, bool) {
	id := f.d.tr.begin(f.d.kind)
	x, ok := f.d.inner.(opt.EngineContextApplier).ApplyEngineContext(ctx, e, eps, rng)
	f.d.tr.end(id, ok)
	return x, ok
}

// timedE and timedECX are the two shapes opt.DefaultRegistry builds: the
// engine-backed rewrite passes (EngineApplier only) and the resynthesis
// transformations (all three optional interfaces). Any other shape falls
// back to the plain timedT, which checkRegistry then reports.
type (
	timedE struct {
		*timedT
		engineFwd
	}
	timedECX struct {
		*timedT
		engineFwd
		contextFwd
		engineContextFwd
	}
)

func (t *tracer) wrapTransformation(x opt.Transformation) opt.Transformation {
	d := &timedT{inner: x, kind: transformationKind(x), tr: t}
	switch optionalInterfaces(x) {
	case "E--":
		return timedE{d, engineFwd{d}}
	case "ECX":
		return timedECX{d, engineFwd{d}, contextFwd{d}, engineContextFwd{d}}
	}
	return d
}

func transformationKind(x opt.Transformation) spanKind {
	switch x.(type) {
	case *opt.RuleTransformation:
		return spanRules
	case *opt.CleanupTransformation:
		return spanCleanup
	case *opt.FuseTransformation:
		return spanFuse1Q
	case *opt.PhaseFoldTransformation:
		return spanPhaseFold
	case *opt.ResynthTransformation, *opt.CircuitResynthTransformation:
		return spanResynth
	}
	return spanOtherT
}

// exchangeCounter stands in for a guoqd client on a traced search. It
// counts the exchange points (every 64 iterations) at which a client
// would publish to its session, as dist.Client.Exchange does: the first
// exchange, then each strictly improved best. It never hands a solution
// back, so the search runs as it would without it.
type exchangeCounter struct {
	sent      bool
	last      float64
	publishes int
}

func (x *exchangeCounter) Exchange(_ *circuit.Circuit, _, cost float64) (*circuit.Circuit, float64, bool) {
	if !x.sent || cost < x.last {
		x.publishes++
	}
	x.sent, x.last = true, cost
	return nil, 0, false
}

// publishesPerCircuit is the mean number of exchange publishes per traced
// search.
func (t *tracer) publishesPerCircuit() float64 {
	n := 0
	for _, x := range t.exchanges {
		n += x.publishes
	}
	return float64(n) / float64(max(len(t.exchanges), 1))
}

// timedSynth times synthesizer calls, split by kind and width.
type timedSynth struct {
	inner   synth.Synthesizer
	numeric bool
	tr      *tracer
	// deadline is the synthesizer's own per-call time limit; a failed call
	// that ran this long hit it.
	deadline time.Duration
	// deadlineHits counts failed calls that ran into the deadline.
	deadlineHits int
}

type timedCtxSynth struct{ *timedSynth }

func (t *tracer) wrapSynth(s synth.Synthesizer) synth.Synthesizer {
	d := &timedSynth{inner: s, tr: t}
	if ns, ok := s.(*numeric.Synthesizer); ok {
		d.numeric, d.deadline = true, ns.MaxTime
	}
	t.synths = append(t.synths, d)
	if _, ok := s.(synth.ContextSynthesizer); ok {
		return timedCtxSynth{d}
	}
	return d
}

func (d *timedSynth) Name() string { return d.inner.Name() }

func (d *timedSynth) kind(numQubits int) spanKind {
	switch {
	case d.numeric && numQubits == 2:
		return spanNumeric2Q
	case d.numeric && numQubits == 3:
		return spanNumeric3Q
	}
	return spanOtherSynth
}

func (d *timedSynth) record(id int32, err error) {
	d.tr.end(id, err == nil)
	s := d.tr.spans[id]
	if err != nil && d.deadline > 0 && time.Duration(s.end-s.start) >= d.deadline*95/100 {
		d.deadlineHits++
	}
}

func (d *timedSynth) Synthesize(target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	id := d.tr.begin(d.kind(numQubits))
	c, err := d.inner.Synthesize(target, numQubits, eps)
	d.record(id, err)
	return c, err
}

func (d timedCtxSynth) SynthesizeContext(ctx context.Context, target linalg.Matrix, numQubits int, eps float64) (*circuit.Circuit, error) {
	id := d.tr.begin(d.kind(numQubits))
	c, err := d.inner.(synth.ContextSynthesizer).SynthesizeContext(ctx, target, numQubits, eps)
	d.record(id, err)
	return c, err
}

// deadlineHits sums the deadline hits of every wrapped synthesizer.
func (t *tracer) deadlineHits() int {
	n := 0
	for _, s := range t.synths {
		n += s.deadlineHits
	}
	return n
}
