// Command benchmark is the repository's one canonical benchmark: the real
// stack — kv client → protocol client → wire → TCP loopback → shard mailbox
// → Handle → WAL sync → delivery → kv apply → reply — under four named
// workloads, with one set of metric names that every later performance claim
// must use. It claims no gain itself. README.md in this directory is the
// full reference (every metric with unit and definition, the recorded
// baseline and noise floor); this comment is the map.
//
// # Running
//
//	cd benchmark && go run .                        # every workload, 30 s windows
//	go run . -workload kv-local                     # one workload; JSON result on the last line
//	go run . -workload kv-durable -trace 1 -trace-out spans.json
//	go run . -runs 5 -out A.json                    # medians and quartiles of 5 full runs
//	go run . -compare A.json B.json                 # ok / worse / unresolved per (workload, metric)
//	go test .                                       # the self-test, under 20 s
//
// The PR driver runs `bash benchmark/run.sh --workload W --seed N --seconds S
// --trace 0|1` from the checkout root (BENCHMARK.json); the script builds
// into .bench_build/ and executes the same program. The benchmark is a
// module of its own (go.mod here, replace wbcast => ../) because the
// driver's contract wants a compiled benchmark to be "a package of its own
// in the benchmark's directory, with its own build file"; the root module's
// `go build ./...` and `go test ./...` therefore do not include it.
//
// # Load model
//
// Closed loop: a kv caller sends its next operation only after the previous
// reply, as the clients of the paper's Fig. 7/8 do, so a slower system is
// offered less load and throughput and latency are two views of one number
// (16 in flight ÷ latency). One OS process hosts the 3×3 cluster and the
// generator with GOMAXPROCS = nproc; load comes from 2 client processes (2
// TCP endpoints, so replies fan in to more than one socket) shared by 8
// callers each (so one endpoint's submissions pipeline). Operations are
// generated here, from kv.NewWorkload(...).Generator(seed*1000+caller); the
// program under test receives only the generated operations.
//
// # Workloads
//
//   - kv-local: 50 % Get / 50 % Put, one shard per op, volatile. Bypasses
//     the cross-group exchange and the WAL; codec, mailbox, ack-batching and
//     Handle costs must show here, WAL and ordering changes must not.
//   - kv-cross: every op a two-shard Txn (one Get, one Put), volatile. Same
//     layers, but every message waits for two groups' ACCEPTs and sits in
//     ordering behind concurrent conflicting messages (Fig. 2's convoy).
//   - kv-durable: kv-local's mix on the real disk WAL (SyncNone: framing,
//     CRC and write(2) are exercised) behind a decorator that makes every
//     Sync wait out an injected 250 µs first, with AppGCHorizon and kv
//     Persist. The cost is injected, and stated, the way a network delay
//     would be: real fsync on a shared disk spreads too far to gate on.
//   - sim-reference: the deterministic simulator, virtual time only. The
//     paper's own numbers in δ — solo, convoy, failover — repeat bit-for-bit
//     on every run; closed-loop episodes (16 in flight, δ = 2 ms with seeded
//     jitter) give throughput and latency that repeat bit-for-bit per seed.
//
// Deliberately not covered: a genmcast wall-clock workload, an open-loop
// overload workload, and Config.Batching (bypassed by all four).
//
// # Files
//
//	spec.go      constants, workloads, the metric catalog (names, units, bounds)
//	load.go      op streams, the closed-loop callers, window statistics
//	kvpublic.go  a kv workload on the public API (wbcast.New + kv.NewService), the gate
//	kvrun.go     one run of a kv workload: set-up rounds, window, per-layer reads
//	walstore.go  kv-durable's sync-cost Config.Storage decorator (syncwait_*.go: the wait)
//	traced.go    the traced run: the stack reassembled with timing wrappers, spans, the budget
//	probes.go    direct-call probes of wire, ring, ordering, kvstore, real fsync
//	simref.go    sim-reference: latency table, failover scenario, closed-loop episodes
//	simrun.go    one run of sim-reference
//	report.go    printing, result files, -runs summaries, -compare
//	run.sh       the PR driver's entry point
package main
