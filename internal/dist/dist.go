// Package dist turns the single-process portfolio of internal/opt into a
// multi-machine optimization service. It has three pieces:
//
//   - A wire protocol (wire.go): JSON over HTTP, carrying circuits as
//     OpenQASM 2.0 envelopes with their accumulated ε bound
//     (circuit.Envelope) so the error bookkeeping of Thm 4.2 survives
//     process boundaries bit-for-bit.
//
//   - A coordinator server (server.go), surfaced as the guoqd daemon:
//     best-so-far exchange sessions keyed by a session id (every
//     participant in a session optimizes the same circuit under the same
//     objective), behind a content-addressed result cache that answers a
//     repeated submission without a search. Benchmark sweeps need no
//     coordinator: guoqbench -shard i/n splits a suite statically.
//
//   - A client (client.go) implementing opt.Exchanger over the network, so
//     a Portfolio on one machine plugs into a guoqd coordinator exactly
//     like its workers plug into the in-process coordinator. Exchange
//     failures degrade gracefully: a worker that cannot reach the
//     coordinator keeps searching alone.
//
// The exchange invariants mirror the in-process coordinator: the server
// only stores a published solution when it strictly improves the session's
// best and its error bound fits the session's ε budget, and it only offers
// its best to callers that are strictly behind — so migration can never
// regress a worker and BestError ≤ Epsilon is preserved end to end.
package dist
