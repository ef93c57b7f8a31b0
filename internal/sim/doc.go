// Package sim is a deterministic discrete-event network simulator for the
// protocol nodes of this repository.
//
// The simulator models the system of paper §II: processes connected by
// reliable FIFO channels, with per-message network delays chosen by a
// pluggable Latency function (at most δ after GST). Virtual time is a
// time.Duration; local steps are instantaneous. Determinism (a seeded RNG
// and a stable event order) makes every test reproducible, and exact latency
// control lets tests assert the paper's latency theorems in units of δ and
// replay the adversarial schedule of Fig. 2.
//
// Fault injection goes beyond the paper's model: crash-stop process
// failures (Crash) and pre-GST message-delay inflation (Latency functions)
// as in §II, plus the hooks the chaos harness (internal/faults) builds on —
// crash-recovery restarts (Restart), per-transmission drop/duplicate/
// delay/reorder verdicts (Config.Filter), per-process timer skew
// (Config.TimerScale) and virtual-time control callbacks (ControlAt).
// Without a Filter, channels never drop or reorder messages.
//
// # Layout
//
// A small run should cost what its handlers cost. The event queue is a
// binary heap (internal/pq) of pointer-free (at, seq, slot) keys over a
// slab of event payloads: sifting moves no pointers, the garbage collector
// does not scan the heap, and the slots of popped and purged events are
// reused. Per-process state (the Step, the crashed flag, the FIFO floor of
// each outgoing link) lives in slices indexed by pid, the genuineness
// audit keeps one bit set of processes per message, a send's Recv is
// boxed once for all of its recipients, and the RNG is seeded on its first
// draw. None of it changes the order in which events run.
//
// # Layering
//
// sim is one of the two runtimes driving node.Handler (with
// internal/tcpnet, the wall-clock one). internal/faults plugs into its
// Filter/TimerScale/ControlAt hooks for chaos runs; internal/harness
// wires simulator, protocols and checkers into ready-made clusters; the
// public Simulated transport wraps it for API users.
package sim
