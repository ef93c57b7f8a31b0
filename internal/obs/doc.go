// Package obs is the observability core: a zero-dependency, allocation-free
// metrics registry (atomic counters, gauges and log-bucketed latency
// histograms with p50/p95/p99/max snapshots) plus a sampled
// message-lifecycle tracer that records timestamped stage events.
//
// # Layering
//
// obs sits below every other layer: it imports only internal/mcast (for
// process and message identifiers) and the standard library, so the
// protocol cores (internal/core, paxos, blackbox), the runtimes
// (internal/sim, tcpnet), the clients (internal/client, batch) and
// the public wbcast package can all instrument themselves against it
// without import cycles. Instrumented packages hold pre-resolved metric
// pointers — the registry's lock is only taken at registration and scrape
// time, never on the message hot path.
//
// # Time
//
// Handlers must not read clocks (see internal/node); all timing flows
// through an injected Clock. Runtimes supply it: wall time since start on
// the in-process and TCP transports, virtual time on the simulator — which
// makes traces deterministic and byte-identical across two runs of the
// same seeded schedule.
//
// # Disabling
//
// The handle types (Proto, Client, Tracer) are nil-safe: a nil handle
// means observability is genuinely off — no atomic traffic at all — which
// is what makes an honest metrics-on/metrics-off overhead benchmark
// possible.
package obs
