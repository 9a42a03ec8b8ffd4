package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/dist"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// key is one cache key as its owning client sees it: the padded circuit it
// submits, the session its publishes go to, and how far down its chain of
// improving versions it has published.
type key struct {
	in      keyInput
	padded  *circuit.Circuit
	baseLen int
	base    [3]int // two-qubit, total and non-Clifford counts of the base
	session string
	version int // last published version, 1..Pad
}

// unitGates is the size of one redundant padding unit; unitCounts are its
// two-qubit, total and non-Clifford gate counts.
const unitGates = 4

var unitCounts = [3]int{2, 4, 2}

// padUnit returns one redundant unit in the target's vocabulary: a
// cancelling CX pair and a cancelling pair of non-Clifford rotations.
func padUnit(target string) []gate.Gate {
	cx := gate.NewCX(0, 1)
	if target == gateset.CliffordT.Name {
		return []gate.Gate{cx, cx, gate.NewT(0), gate.NewTdg(0)}
	}
	return []gate.Gate{cx, cx, gate.NewRz(math.Pi/4, 0), gate.NewRz(-math.Pi/4, 0)}
}

// versionOf returns version v of the key's publish chain (1 ≤ v ≤ pad):
// the base circuit with pad−v units left. It shares the padded gate slice.
func (k *key) versionOf(v, pad int) *circuit.Circuit {
	return &circuit.Circuit{NumQubits: k.padded.NumQubits, Gates: k.padded.Gates[:k.baseLen+unitGates*(pad-v)]}
}

// counts returns the two-qubit, total and non-Clifford counts of version v
// (v = 0 is the padded submission).
func (k *key) counts(v, pad int) [3]int {
	var c [3]int
	for i := range c {
		c[i] = k.base[i] + unitCounts[i]*(pad-v)
	}
	return c
}

// freshCircuit generates the i-th fresh submission of a client from its
// seed: a random Clifford+T circuit, submitted under the T objective for
// even i and translated to ibm-eagle under the two-qubit objective for
// odd i.
func freshCircuit(i int, seed int64) (*circuit.Circuit, string, string, error) {
	rng := rand.New(rand.NewSource(seed))
	c := benchmarks.RandomCliffordT(4+rng.Intn(9), 30+rng.Intn(121), rng.Int63())
	gs, objective := gateset.CliffordT, "t"
	if i%2 == 1 {
		gs, objective = gateset.IBMEagle, "2q"
	}
	out, err := gateset.Translate(c, gs)
	return out, gs.Name, objective, err
}

// server is one open guoqd instance on a loopback listener.
type server struct {
	s      *dist.Server
	addr   string
	cancel context.CancelFunc
	hs     *http.Server // traced runs serve through their own http.Server
	done   chan error
}

// openServer opens the coordinator on dir, serves it on loopback and
// returns once /healthz answers. A non-nil timer wraps the handler.
func openServer(opts dist.ServerOptions, timer *handlerTimer) (*server, error) {
	s, err := dist.OpenServer(opts)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	sv := &server{s: s, addr: l.Addr().String(), done: make(chan error, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	sv.cancel = cancel
	if timer != nil {
		timer.next = s.Handler()
		sv.hs = &http.Server{Handler: timer, ReadHeaderTimeout: 10 * time.Second}
		go func() { sv.done <- sv.hs.Serve(l) }()
	} else {
		go func() { sv.done <- s.ServeContext(ctx, l, 5*time.Second) }()
	}
	for {
		resp, err := http.Get("http://" + sv.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		select {
		case err := <-sv.done:
			cancel()
			s.Close()
			return nil, fmt.Errorf("guoqd stopped before answering /healthz: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// close drains the listener and closes the coordinator (final snapshot).
func (sv *server) close() error {
	sv.cancel()
	if sv.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := sv.hs.Shutdown(ctx); err != nil {
			return err
		}
	}
	if err := <-sv.done; err != nil && err != http.ErrServerClosed {
		return err
	}
	return sv.s.Close()
}

func (sv *server) counter(name string) float64 {
	return sv.s.Registry().Snapshot()[name]
}

// handlerTimer is the traced run's timing middleware: one span per
// request the server handles, linked to the client's request span by a
// header.
type handlerTimer struct {
	next  http.Handler
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []handlerSpan // guarded by mu
}

type handlerSpan struct {
	request    int64 // the client request span's id, -1 if unknown
	start, end int64 // ns since epoch
}

const requestHeader = "X-Bench-Request"

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Since(h.epoch)
	h.next.ServeHTTP(w, r)
	end := time.Since(h.epoch)
	id, err := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
	if err != nil {
		id = -1
	}
	h.mu.Lock()
	h.spans = append(h.spans, handlerSpan{request: id, start: int64(start), end: int64(end)})
	h.mu.Unlock()
}

// requestIDKey carries a client's current request span id in its
// context; spanTransport copies it into a header.
type requestIDKey struct{}

type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(requestIDKey{}).(*atomic.Int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestHeader, strconv.FormatInt(id.Load(), 10))
	}
	return t.base.RoundTrip(r)
}

// readRecord is one timed read, checked after the timed region.
type readRecord struct {
	key, version int
	ok           bool
	hash         uint64
}

// clientRun is one client's timed loop and what it observed.
type clientRun struct {
	id        int64
	cl        *dist.Client
	reqID     *atomic.Int64
	ops       []int32
	fresh     []*freshInput
	readMS    []float64
	writeMS   []float64
	requests  []requestSpan
	reads     []readRecord
	firstRead string // the first read's reply, kept for fault injection
	publishes int
	freshBad  int
	submitErr int
}

type freshInput struct {
	c                 *circuit.Circuit
	target, objective string
}

type requestSpan struct {
	id, start, end int64
	read           bool
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// runGuoqd runs guoqd-rw in this process: an in-process coordinator on
// loopback, driven by two closed-loop clients.
func runGuoqd(p *plan, injectFault bool) (*report, error) {
	g := p.Guoqd
	r := &report{}
	keys := make([]*key, len(g.Keys))
	for i, in := range g.Keys {
		base, err := circuit.ParseQASM(in.QASM)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		k := &key{in: in, baseLen: base.Len(), base: [3]int{base.TwoQubitCount(), base.Len(), nonClifford(base)}}
		k.padded = base.Clone()
		for u := 0; u < g.Pad; u++ {
			k.padded.Append(padUnit(in.Target)...)
		}
		keys[i] = k
	}
	runs := make([]*clientRun, len(g.Clients))
	for c, cp := range g.Clients {
		cr := &clientRun{id: int64(c), ops: cp.Ops, reqID: new(atomic.Int64), readMS: make([]float64, 0, len(cp.Ops))}
		for i, seed := range cp.FreshSeeds {
			fc, target, objective, err := freshCircuit(i, seed)
			if err != nil {
				return nil, err
			}
			cr.fresh = append(cr.fresh, &freshInput{c: fc, target: target, objective: objective})
		}
		runs[c] = cr
	}

	dir := filepath.Join(p.WorkDir, "guoqd-data")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// No fsync during the run: the WAL's own work (encoding, framing,
	// buffered writes) stays in the measurement, the disk's flush latency
	// does not. Checkpoints happen only on volume and at close.
	opts := dist.ServerOptions{DataDir: dir, SyncEvery: time.Hour, CheckpointEvery: time.Hour}

	// Populate: submit every key and close, so the sessions land in the
	// snapshot. Then publish every key once on a server that writes each
	// append through, and keep its snapshot and WAL before it closes
	// (closing checkpoints and empties the WAL).
	sv, err := openServer(opts, nil)
	if err != nil {
		return nil, err
	}
	pop := newClient(sv.addr, "populate")
	for _, k := range keys {
		resp, err := pop.Submit(k.padded, k.in.Target, k.in.Objective, epsilon)
		if err != nil {
			sv.close()
			return nil, fmt.Errorf("populate %s: %w", k.in.Name, err)
		}
		k.session = resp.Session
	}
	if err := sv.close(); err != nil {
		return nil, err
	}
	through := opts
	through.SyncEvery = -1
	if sv, err = openServer(through, nil); err != nil {
		return nil, err
	}
	pop = newClient(sv.addr, "populate")
	for _, k := range keys {
		publish(pop, k, 1, g.Pad)
	}
	saved, err := readFiles(dir, "snapshot.json", "wal.log")
	if cerr := sv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if st := pop.Stats(); st.Errors > 0 {
		return nil, fmt.Errorf("populate: %d exchange errors", st.Errors)
	}
	r.ReplayBytes = [2]int{len(saved["snapshot.json"]), len(saved["wal.log"])}
	r.Attempted++
	if len(saved["wal.log"]) == 0 {
		r.Failures = append(r.Failures, "populate left an empty WAL: the reopen replays no records")
	}

	// Set-up: reopen from the kept snapshot and WAL (snapshot decode and
	// WAL replay) until /healthz answers.
	var timer *handlerTimer
	if p.Trace {
		timer = &handlerTimer{}
		http.DefaultTransport = spanTransport{base: http.DefaultTransport}
	}
	if err := calibratePhase(p, r); err != nil {
		return nil, err
	}
	for s := 0; s < p.Setups; s++ {
		if err := writeFiles(dir, saved); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		sv, err = openServer(opts, timer)
		if err != nil {
			return nil, err
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
		if s < p.Setups-1 {
			if err := sv.close(); err != nil {
				return nil, err
			}
		}
	}
	defer sv.close()

	for c, cr := range runs {
		cr.cl = newClient(sv.addr, fmt.Sprintf("bench-%d", c))
		if p.Trace {
			cr.cl.Context = context.WithValue(context.Background(), requestIDKey{}, cr.reqID)
		}
	}
	// Warm-up: each client reads each of its keys once, so every cache
	// entry is back in memory and both connections are open.
	for c, cr := range runs {
		for k := c; k < len(keys); k += numClients {
			if _, err := cr.cl.Submit(keys[k].padded, keys[k].in.Target, keys[k].in.Objective, epsilon); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}

	walPath := filepath.Join(dir, "wal.log")
	wal0, snap0 := fileSize(walPath), fileSize(filepath.Join(dir, "snapshot.json"))
	pub0 := sv.counter("guoqd_exchange_publishes_total")
	hits0, misses0 := sv.counter("guoqd_cache_hits_total"), sv.counter("guoqd_cache_misses_total")
	if err := calibratePhase(p, r); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	rss := startRSSSampler()
	epoch := time.Now()
	if timer != nil {
		timer.epoch = epoch
		timer.on.Store(true)
	}
	// The loop runs in consecutive parts, each client taking the next
	// share of its ops in each, with a calibration after every part.
	r.Parts = true
	for part := 0; part < guoqdParts; part++ {
		t0, cpu0 := time.Now(), cpuSeconds()
		var wg sync.WaitGroup
		for _, cr := range runs {
			wg.Add(1)
			go func(cr *clientRun) {
				defer wg.Done()
				n := len(cr.ops)
				cr.loop(keys, g.Pad, epoch, p.Trace, part*n/guoqdParts, (part+1)*n/guoqdParts)
			}(cr)
		}
		wg.Wait()
		r.WallS = append(r.WallS, time.Since(t0).Seconds())
		r.CPUS = append(r.CPUS, cpuSeconds()-cpu0)
		if err := calibratePhase(p, r); err != nil {
			return nil, err
		}
	}
	r.PeakRSSMB = rss.stop()
	if timer != nil {
		timer.on.Store(false)
	}
	pubs := sv.counter("guoqd_exchange_publishes_total") - pub0
	hits, misses := sv.counter("guoqd_cache_hits_total")-hits0, sv.counter("guoqd_cache_misses_total")-misses0
	walBytes := fileSize(walPath) - wal0
	checkpointed := fileSize(filepath.Join(dir, "snapshot.json")) != snap0

	// Checks, outside the timed region.
	expected := map[[2]int]uint64{}
	sent := 0
	for c, cr := range runs {
		r.Ops += len(cr.ops)
		r.Attempted += len(cr.ops)
		r.ReadMS = append(r.ReadMS, cr.readMS...)
		r.WriteMS = append(r.WriteMS, cr.writeMS...)
		sent += cr.publishes
		if cr.freshBad > 0 || cr.submitErr > 0 {
			r.Failures = append(r.Failures, fmt.Sprintf("client %d: %d submit errors, %d fresh submits answered from cache", c, cr.submitErr, cr.freshBad))
		}
		if st := cr.cl.Stats(); st.Errors > 0 {
			r.Failures = append(r.Failures, fmt.Sprintf("client %d: %d exchange errors", c, st.Errors))
		}
		stale := 0
		for i, rd := range cr.reads {
			kv := [2]int{rd.key, rd.version}
			want, ok := expected[kv]
			if !ok {
				want = fnv64(keys[rd.key].versionOf(rd.version, g.Pad).WriteQASM())
				expected[kv] = want
			}
			got := rd.hash
			if injectFault && c == 0 && i == 0 {
				got = fnv64(dropOneGate(cr.firstRead))
			}
			if !rd.ok || got != want {
				stale++
				continue
			}
			served, submitted := keys[rd.key].counts(rd.version, g.Pad), keys[rd.key].counts(0, g.Pad)
			for j := range served {
				r.Served[j] += served[j]
				r.Submitted[j] += submitted[j]
			}
		}
		if stale > 0 {
			r.Failures = append(r.Failures, fmt.Sprintf("client %d: %d cache-hit replies missing or not the last published QASM", c, stale))
		}
	}
	r.Attempted++
	if int(pubs) != sent {
		r.Failures = append(r.Failures, fmt.Sprintf("guoqd_exchange_publishes_total moved by %d, %d improving publishes sent", int(pubs), sent))
	}

	if timer != nil {
		r.Layers = guoqdLayers(timer, runs, keys, g.Pad)
		r.Layers["store.cache_hit_ratio"] = hits / math.Max(hits+misses, 1)
		r.Layers["dist.publishes"] = pubs
		writes := 0
		for _, cr := range runs {
			writes += len(cr.writeMS)
		}
		if !checkpointed {
			r.Layers["store.wal_bytes_per_write"] = float64(walBytes) / float64(max(writes, 1))
		}
		if err := dumpRequestSpans(filepath.Join(p.WorkDir, "guoqd-rw.spans.tsv"), timer, runs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// dumpRequestSpans writes the client request spans and the handler spans
// they caused as tab-separated lines; a handler span's parent is the id of
// its request span.
func dumpRequestSpans(path string, timer *handlerTimer, runs []*clientRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tid\tparent\tread\tstart_ns\tend_ns")
	for _, cr := range runs {
		for _, s := range cr.requests {
			fmt.Fprintf(w, "request\t%d\t-1\t%t\t%d\t%d\n", s.id, s.read, s.start, s.end)
		}
	}
	for i, s := range timer.spans {
		fmt.Fprintf(w, "handler\th%d\t%d\t-\t%d\t%d\n", i, s.request, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func newClient(addr, worker string) *dist.Client {
	cl := dist.NewClient(addr, "", worker)
	cl.MinInterval = -1 // no throttling
	cl.Retries = -1     // no retries
	cl.Epsilon = epsilon
	return cl
}

// publish sends version v of k's chain as an improving exchange.
func publish(cl *dist.Client, k *key, v, pad int) {
	c := k.versionOf(v, pad)
	cl.Session = k.session
	cl.Exchange(c, 0, costFor(k.in.Objective)(c))
	k.version = v
}

// loop is one client's closed loop over its ops.
func (cr *clientRun) loop(keys []*key, pad int, epoch time.Time, traced bool, lo, hi int) {
	for n := lo; n < hi; n++ {
		op := cr.ops[n]
		kind, idx := op&3, int(op>>2)
		cr.reqID.Store(cr.id<<32 | int64(n))
		t0 := time.Now()
		switch kind {
		case opRead:
			k := keys[idx]
			resp, err := cr.cl.Submit(k.padded, k.in.Target, k.in.Objective, epsilon)
			d := time.Since(t0)
			cr.readMS = append(cr.readMS, ms(d))
			if err != nil {
				cr.submitErr++
			}
			if len(cr.reads) == 0 {
				cr.firstRead = resp.Best.QASM
			}
			cr.reads = append(cr.reads, readRecord{key: idx, version: k.version, ok: err == nil && resp.Cached, hash: fnv64(resp.Best.QASM)})
		case opPublish:
			k := keys[idx]
			publish(cr.cl, k, k.version+1, pad)
			cr.publishes++
			cr.writeMS = append(cr.writeMS, ms(time.Since(t0)))
		case opFresh:
			f := cr.fresh[idx]
			resp, err := cr.cl.Submit(f.c, f.target, f.objective, epsilon)
			cr.writeMS = append(cr.writeMS, ms(time.Since(t0)))
			switch {
			case err != nil:
				cr.submitErr++
			case resp.Cached || resp.Session == "":
				cr.freshBad++
			}
		}
		if traced {
			cr.requests = append(cr.requests, requestSpan{id: cr.reqID.Load(), start: int64(t0.Sub(epoch)), end: int64(time.Since(epoch)), read: kind == opRead})
		}
	}
}

// guoqdLayers computes the daemon's per-layer metrics from the request
// and handler spans, and times canonicalization on the read payloads.
func guoqdLayers(timer *handlerTimer, runs []*clientRun, keys []*key, pad int) map[string]float64 {
	l := map[string]float64{}
	var observed, readObs, writeObs time.Duration
	isRead := map[int64]bool{}
	reads := map[int]int{}
	for _, cr := range runs {
		for _, s := range cr.requests {
			d := time.Duration(s.end - s.start)
			observed += d
			isRead[s.id] = s.read
			if s.read {
				readObs += d
			} else {
				writeObs += d
			}
		}
		for _, rd := range cr.reads {
			reads[rd.key]++
		}
	}
	var readH, writeH, handled time.Duration
	var nRead, nWrite int
	for _, s := range timer.spans {
		d := time.Duration(s.end - s.start)
		handled += d
		read, linked := isRead[s.request]
		switch {
		case linked && read:
			readH += d
			nRead++
		case linked:
			writeH += d
			nWrite++
		}
	}
	share := func(part, whole time.Duration) float64 {
		if whole <= 0 {
			return 0
		}
		return part.Seconds() / whole.Seconds()
	}
	l["dist.read_handler_ms"] = ms(readH) / float64(max(nRead, 1))
	l["dist.write_handler_ms"] = ms(writeH) / float64(max(nWrite, 1))
	l["dist.read_handler_share"] = share(readH, readObs)
	l["dist.write_handler_share"] = share(writeH, writeObs)
	l["dist.client_share"] = 1 - share(handled, observed)
	l["trace.layer_coverage_ratio"] = share(handled, observed)
	// Canonicalization as the submit handler does it, on each read
	// payload, weighted by how often it was read.
	var canon time.Duration
	total := 0
	for k, n := range reads {
		src := keys[k].padded.WriteQASM()
		t0 := time.Now()
		c, err := circuit.ParseQASM(src)
		if err == nil {
			_ = c.WriteQASM()
		}
		canon += time.Since(t0) * time.Duration(n)
		total += n
	}
	l["circuit.canonicalize_ms"] = ms(canon) / float64(max(total, 1))
	l["circuit.canonicalize_share"] = share(canon, readObs)
	return l
}

// dropOneGate removes the last gate statement from a QASM text: the
// injected fault that shows the reply check fires.
func dropOneGate(qasm string) string {
	lines := bytes.Split(bytes.TrimRight([]byte(qasm), "\n"), []byte("\n"))
	if len(lines) < 2 {
		return qasm + "x"
	}
	return string(bytes.Join(lines[:len(lines)-1], []byte("\n"))) + "\n"
}

// readFiles reads the named files of dir.
func readFiles(dir string, names ...string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		out[n] = b
	}
	return out, nil
}

// writeFiles writes files back into dir, as readFiles returned them.
func writeFiles(dir string, files map[string][]byte) error {
	for n, b := range files {
		if err := os.WriteFile(filepath.Join(dir, n), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// nonClifford counts single-qubit gates outside the Clifford group: T and
// T† on Clifford+T, rotations by angles off the π/2 grid elsewhere. On
// Clifford+T circuits this is the T count.
func nonClifford(c *circuit.Circuit) int {
	n := 0
	for _, g := range c.Gates {
		switch g.Name {
		case gate.T, gate.Tdg:
			n++
		case gate.Rz, gate.Rx, gate.Ry, gate.U1, gate.U2, gate.U3:
			for _, a := range g.Params {
				if q := a / (math.Pi / 2); math.Abs(q-math.Round(q)) > 1e-9 {
					n++
					break
				}
			}
		}
	}
	return n
}
