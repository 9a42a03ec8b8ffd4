// Command perfbench is the repository's fixed-work benchmark. It runs
// three workloads over the optimizer and the guoqd coordinator, checks
// every output, prints every end-to-end metric by name with its unit,
// and, in a separate traced run, splits the time by layer.
//
// # Running
//
// From the root of a checkout:
//
//	bash perfbench/run.sh --workload nisq-guoq --seed 1 --seconds 30 --trace 0
//
// run.sh builds and starts this package with go run. The Go build cache,
// temporary files, the guoqd data directory and the span dumps stay under
// .bench_build/ in the checkout. The flags:
//
//   - --workload is nisq-guoq, suite-rewrite, guoqd-rw, or all (the
//     default), which runs the three one after another.
//   - --seed picks the inputs: the circuit samples, the per-circuit search
//     seeds and the request mix. The same seed gives the same inputs.
//   - --seconds scales the fixed work (see Work). It never bounds a run.
//   - --trace 1 reports the per-layer metrics of a traced run instead of
//     the end-to-end ones.
//   - --inject-fault drops one gate from one output before the checks run.
//     The checks must then fail, which shows that they fire.
//
// Each workload runs in its own process: the binary re-executes itself
// with -child and sends that process its generated inputs as JSON on
// stdin. The workload process sees only those inputs, and setup_s, cpu_s
// and peak_rss_mb belong to it alone. The output checks run in the parent
// process, outside every timed region. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics.
// The lines before it give the environment (nproc, GOMAXPROCS, the Go
// version and the host's steal share over the run, from /proc/stat),
// every metric with its unit and sample count, fail_ratio with the failed
// checks, and the output hashes.
//
// # Workloads
//
// nisq-guoq runs full GUOQ, rewrite rules plus numeric resynthesis,
// through guoq.Start and Wait. It uses MaxIters, Budget 0 and the default
// synchronous mode, on a seeded sample of the 247-circuit NISQ suite
// translated to ibm-eagle. This is the paper's main configuration and
// what library and guoq users run. Resynthesis does about 96% of its work
// and rewriting under 3%.
//
// suite-rewrite runs GUOQ-REWRITE through baselines.GUOQ with ModeRewrite
// and MaxIters, on the same NISQ sample (same circuits, same search seeds)
// plus an equal seeded sample of the Clifford+T suite under the T
// objective. Only the fast transformations run: rules, cleanup, fuse1q
// and phase folding, so the rewrite engine and the τ_0 passes do all of
// its work. Its iterations are cheap (about 50 µs each) and many, where
// nisq-guoq has few expensive ones. Its output is byte-reproducible: it
// runs the same work three times, and the rounds and the traced run must
// produce one output hash. On the shared NISQ circuits, its quality gap to
// nisq-guoq is what resynthesis contributes (the paper's ablation), at
// unequal iteration counts.
//
// guoqd-rw runs an in-process coordinator: dist.OpenServer with a data
// directory, served with Server.ServeContext on loopback. Two dist.Clients
// from the same process drive it in a closed loop over the default JSON
// wire, with throttling and retries off. The mix is three reads per
// write:
//
//   - A read is a cache-hit submit: parse, canonicalize, hash, cache
//     lookup, and a reply that carries QASM.
//   - A write is either a strictly improving exchange publish or the first
//     submit of a fresh seeded circuit. Writes cause a WAL append, a cache
//     put, or a new session.
//
// The writes split as a guoqd client's would. A client submits a circuit
// once, then exchanges every 64 iterations and publishes its first
// exchange and each improved best. Traced nisq-guoq runs count those
// publishes and print the mean per circuit as a note (see Tracing): 1.34
// over seeds 1 to 3 at --seconds 30. guoqd-rw sends that many publishes
// per fresh submit (publishesPerFresh).
//
// Every circuit of both suites is a cache key. Clients submit it padded
// with redundant units (a cancelling CX pair and a cancelling pair of
// non-Clifford rotations), and each publish strips one unit, so every
// publish genuinely improves the key's best. Client c owns the keys k with
// k%2 == c, so the last value published for a key is known to its reader.
// Before timing starts, every key is submitted and the server is closed,
// so the sessions land in the snapshot. Every key is then published once
// on a server that writes each append through, and its snapshot and WAL
// are kept before it closes. setup_s is the reopen from that snapshot and
// WAL (snapshot decode, then WAL replay of one record per key) until
// /healthz answers; before each reopen the kept files are written back. A
// warm-up reads every key once. This is the only workload that touches
// internal/dist and internal/store. Splitting reads from writes shows a
// gain on one side that costs the other. The data directory sits in the
// checkout with fsync batching set past the run (SyncEvery one hour): the
// WAL's own work stays in the measurement and the virtual disk's flush
// latency stays out. No volume checkpoint falls inside the timed region at
// --seconds 30. The clients leave Gzip off, but Go's HTTP transport still
// advertises gzip, so replies over 1 KB come back compressed; that is what
// the default client does, and it is measured.
//
// # Work
//
// Every run does fixed work, derived from --seed and --seconds and never
// from a clock; no run sets Options.Budget or a TimeBudget. --seconds
// scales each workload's work by a constant calibrated on a 2-vCPU VM, and
// the workloads are not equally long. At --seconds 30 on that VM:
//
//   - nisq-guoq optimizes 99 circuits for 200 iterations each, in 30 to
//     40 s.
//   - suite-rewrite optimizes 99 NISQ and 99 Clifford+T circuits for 700
//     iterations each, three times, in 3 to 4.5 s each time.
//   - guoqd-rw sends 10200 requests, in 9 to 16 s, after 5 to 10 s of
//     populating, reopening and warming up.
//
// nisq-guoq gets the most work because its spread between seeds shrinks
// only with the number of synthesis calls (see Noise). The optimizer
// samples are stratified: suite circuits of at most 1200 translated gates
// are sorted by family and then by size, cut into equal strata, and one
// circuit is drawn per stratum. Every seed thus gets the same mix of
// families and sizes, which is what sets how much work a circuit takes.
//
// Each run is sized for 2 CPUs: the optimizer workloads run one
// synchronous search at a time, and guoqd-rw has two clients. There are no
// portfolio or fixpoint workers.
//
// # End-to-end metrics
//
// An untraced run reports these for every workload, in the result line and
// in BENCHMARK.json:
//
//	setup_s      s      median of the set-ups: parse and translate the inputs
//	                    (21 times); guoqd-rw: reopen until /healthz answers (5 times)
//	wall_s       s      wall time of the fixed work (median of the rounds)
//	cpu_s        s      process user+sys time of the fixed work; guoqd-rw includes the clients
//	peak_rss_mb  MB     peak resident set during the fixed work
//	twoq_ratio   ratio  two-qubit gates after / before; guoqd-rw: served replies / submissions
//	gate_ratio   ratio  all gates, likewise
//	t_ratio      ratio  T count of the T-objective circuits; where a workload has none
//	                    (nisq-guoq), rotations off the Clifford angles; guoqd-rw: likewise
//	ops_per_s    1/s    search iterations or requests per second of wall time
//
// The timings are in reference seconds. The workload process starts a
// calibration process, which times a fixed loop three times (see
// calibrate), right before its set-up, right before its work and right
// after each round of it. Each round's wall and CPU time is scaled by how
// much faster or slower the two calibrations around it ran than on the
// reference VM, and wall_s and cpu_s are the medians of the scaled rounds.
// guoqd-rw has one round, run in three consecutive parts (each client
// takes the next third of its requests) with a calibration after each;
// its wall_s and cpu_s are the sums of the scaled parts. The short set-up
// is scaled by the median of the run's calibrations. The loop runs in a
// process of its own, so how much memory the program under test keeps
// live cannot change the collector's work in the loop, and with it the
// scale. nisq-guoq's wall_s, cpu_s and ops_per_s are scaled only in part,
// by the scale to the power 0.4 (deadlineElasticity): much of its search
// waits on wall-clock synthesis deadlines, which do not speed up or slow
// down with the host. The measured seconds and the scales are printed with
// the notes.
//
// guoqd-rw also prints its client-observed request latencies, in measured
// milliseconds and each with its sample count: read_p50_ms and read_p99_ms over the cache-hit
// submits, write_p50_ms and write_p99_ms over the publishes and fresh
// submits. They are not in the result line, because the optimizer
// workloads have no requests and every workload must report every gated
// metric. fail_ratio, failed checks over attempted checks, is printed for
// every workload; the result line carries it as failed and attempted. It
// is not a gated metric, because it is 0 whenever the program is correct.
//
// # Checks
//
// Outputs are checked outside the timed region, and each failure counts
// in fail_ratio:
//
//   - Every optimized circuit parses, is native to its gate set, is no
//     worse than its input under its objective, and reports an error
//     bound within [0, ε]. When it has at most 12 qubits it must also pass
//     verify.Equivalent against its input.
//   - suite-rewrite's rounds must agree on one output hash, and its traced
//     run must reproduce it. nisq-guoq prints its hashes and how many
//     distinct ones it saw, without failing: under the synthesis deadline
//     its seeded output is not reproducible, and this keeps that visible.
//   - Every guoqd reply must decode. A cache-hit reply must carry the QASM
//     last published for its key; a fresh submit must miss the cache.
//     guoqd_exchange_publishes_total must move by the number of improving
//     publishes sent, and Client.Stats().Errors must stay 0, because
//     Exchange swallows its errors.
//   - In the traced run, the wrapped transformation registry must build
//     the same names, in the same order, with the same optional
//     interfaces, as opt.DefaultRegistry().
//
// # Tracing
//
// --trace 1 runs each workload twice, untraced and traced, from the same
// inputs. The per-layer metrics come from the traced run, and
// trace.overhead_ratio is traced cpu_s over untraced cpu_s, minus one. It
// is negative on the optimizer workloads: the span buffer enlarges the
// heap, so the collector, which otherwise costs a good part of their CPU
// time on the second core, runs less often. The spans are recorded by this
// package, around the calls into each layer, kept in memory and written at
// the end to .bench_build/perfbench/<workload>.spans.tsv. A layer's self
// time is its span minus the time its child spans cover. The per-layer
// metrics give self times as shares: of the traced searches' wall time on
// the optimizer, of the client-observed request time on guoqd. The
// seconds are printed with the notes. A layer a workload does not
// exercise reports 0.
//
// On the optimizer the spans are circuit → transformation call →
// synthesizer call, plus a span per cost evaluation. The traced search
// runs through baselines.GUOQ, the layer under guoq.Start, configured as
// Start configures it. Its registry is built from opt.DefaultRegistry():
// every transformation is wrapped in a timing decorator, and every
// resynthesis transformation also gets its synthesizer wrapped. The search
// loop picks its application path by type assertion on EngineApplier,
// ContextApplier and EngineContextApplier, so each decorator implements
// exactly the optional interfaces of what it wraps. The default registry
// builds two shapes, the engine-backed rewrite passes (EngineApplier only)
// and resynthesis (all three), and there is a decorator for each; any
// other shape gets the plain one, which the registry self-check reports.
// The synthesizer wrapper keeps ContextSynthesizer, and every wrapper
// keeps Name(). The engine counters come from the program's own
// opt.Metrics registry, the attempts and accepts from Result.Rules, and
// the allocations from runtime.MemStats. trace.layer_coverage_ratio is the named layers' self
// time over the traced searches' wall time; the rest, opt.loop_share, is
// the search loop's own bookkeeping. Each traced search also gets an
// exchanger that never hands a solution back, which leaves the search as
// it is. It counts the exchange points at which a guoqd client would
// publish, and the notes give their mean per search.
//
// On guoqd the spans are request → handler: the clients time each request,
// Server.Handler() is served through a timing middleware, and a header
// links each handler span to its request; trace.layer_coverage_ratio is
// the handler's share of the request time. Canonicalization is timed
// directly with circuit.ParseQASM and WriteQASM on the read payloads.
//
// # Layers and the end-to-end metrics they should move
//
//	rewrite.rules_{calls,applied_ratio,share}, rewrite.cleanup_*, rewrite.fuse1q_*,
//	rewrite.engine_{cache_hit_ratio,positive_hits,splices,resets}
//	    → cpu_s, wall_s on suite-rewrite. Under 3% of nisq-guoq: predict no move there.
//	phasepoly.fold_{calls,applied_ratio,share}
//	    → cpu_s, wall_s, t_ratio on suite-rewrite
//	opt.iters, opt.accept_ratio, opt.cost_share, opt.allocs_per_iter, opt.loop_share
//	    → cpu_s, peak_rss_mb on suite-rewrite
//	opt.resynth_{calls,accept_ratio,self_share}, synth.numeric_{2q,3q}_{calls,ok_ratio,share},
//	synth.numeric_deadline_hits
//	    → wall_s, twoq_ratio, gate_ratio, cpu_s on nisq-guoq. Absent (0) on suite-rewrite.
//	circuit.parse_share, gateset.translate_share
//	    → setup_s on nisq-guoq and suite-rewrite
//	dist.read_handler_share, circuit.canonicalize_share, store.cache_hit_ratio
//	    → read_p50_ms, read_p99_ms, ops_per_s on guoqd-rw
//	dist.write_handler_share, store.wal_bytes_per_write, dist.publishes
//	    → write_p50_ms, write_p99_ms on guoqd-rw
//	dist.client_share (share of observed latency spent outside the handler)
//	    → every guoqd-rw latency
//
// Two predictions follow from the map:
//
//   - A change to the rewrite engine should move suite-rewrite and leave
//     nisq-guoq and guoqd-rw alone. Making cleanup incremental would do
//     this: cleanup takes about a sixth of suite-rewrite's search time but
//     changes the circuit in only a few percent of its calls.
//   - A faster synthesizer should turn deadline hits into successes on
//     nisq-guoq, lowering wall_s and twoq_ratio; suite-rewrite should not
//     move.
//
// # Noise
//
// The numbers here come from a 2-vCPU cloud VM. Its speed drifts: the
// same work ran up to 1.6 times longer from one ten-minute spell to the
// next, in user CPU time as much as in wall time, while the guest's steal
// counter stayed near zero. At other times the steal counter itself reached
// 35% of a run, and in one such spell five byte-identical rewrite-only
// runs took from 15.9 s to 26.2 s. No run length or median within a run
// removes a drift that slow, which is why the timings are scaled by the
// calibrations. Over ten seeds, scaling took the spread of wall_s, as the
// distance between the quartiles over the median, from 0.24 to 0.06 on
// suite-rewrite and from 0.21 to 0.07 on guoqd-rw. In a spell where the
// calibration moved between 0.19 and 0.37 s within single runs, scaling
// each round by the calibrations around it, rather than by the run's
// median calibration, took suite-rewrite's wall_s spread over eight seeds
// from 0.14 to 0.10 and its cpu_s spread from 0.13 to 0.09; scaling the
// set-up by the two calibrations around it widened its spread (0.15 to
// 0.20), so the set-up keeps the run's median. In a spell where the
// calibration moved between 0.19 and 0.32 s within single runs, running
// guoqd-rw's loop in three calibrated parts took its wall_s spread over six
// seeds from 0.20, with the loop scaled by the calibrations before and
// after it, to 0.16.
//
// On nisq-guoq full scaling made the spread worse (0.07 to 0.17), and no
// scaling let its medians follow the host: ten seeds in a spell where the
// calibration ran 1.4 to 2.5 times slower read 27% higher wall_s and 30%
// higher cpu_s than the same seeds in a fast spell. Scaling by the power
// 0.4 left them 2% lower, and it left the spread within a steady spell as
// it was. In that spell, with every run scaled by its median calibration,
// the other timings read up to 12% higher, and the optimizer set-ups up to
// 22% higher: short bursts of parsing slow down more than the calibration
// loop does.
//
// nisq-guoq has a second source of noise. About three quarters of its
// time is 3-qubit numeric synthesis, and about half of those calls run
// into their 500 ms wall-clock deadline. Which calls do depends on the
// host, so its seeded output varies between runs. The number and length of
// the calls also vary between seeds, and that spread shrinks only with the
// square root of the number of calls: about 0.07 to 0.13 at its 30 to 40 s
// of work, where the same seed repeated varies by 0.03. Stratifying the sample
// by circuit family as well as size brought it down from about 0.2.
// suite-rewrite and guoqd-rw have no wall-clock deadline. At --seconds 30
// one run of each workload takes under a minute on the reference VM.
//
// # Not covered
//
// A later benchmark can add any of these, with its own steadiness
// evidence:
//
//   - Asynchronous resynthesis, the portfolio and adaptive portfolio, and
//     the fixpoint and partition modes are either not reproducible by
//     design or too slow to repeat on 2 vCPUs.
//   - Finite (Clifford+T) resynthesis would need a fourth workload.
//   - The gzip and binary wire formats, and the job-queue lease and
//     complete traffic, carry little traffic in real use.
//   - fsync on a real disk: a virtual disk's flush latency says little
//     about one.
//   - Circuits above 1200 translated gates are left out of the optimizer
//     samples, so one circuit cannot dominate a run; they are in the
//     guoqd-rw keys.
package main
