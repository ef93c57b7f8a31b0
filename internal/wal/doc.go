// Package wal supplies durable storage for protocol replicas: the Storage
// interface, a per-process on-disk write-ahead log with checksummed
// snapshots and log truncation (Disk), a staged in-memory implementation
// (Memory) whose durability boundary is Sync, and a deterministic
// fault-injecting wrapper (Flaky) for crash-consistency chaos runs.
//
// Layering: wal sits beside the runtimes, below the public package and
// above the codec. It imports only internal/mcast, internal/msgs,
// internal/wire (an entry is written and read through wire's Writer and
// Reader, a message record in the layout NEW_STATE carries)
// and internal/obs (instrumentation). It must never import internal/node
// or any runtime: handlers describe persistence as node.Effects entries,
// and the runtimes — which own all I/O — apply them here. That keeps
// handlers deterministic and lets the simulator drive real recovery code
// under virtual time.
//
// The durability contract is two-phase: Append stages entries, Sync makes
// everything staged durable. The runtimes' shard driver (node.Step) hands
// the store what a mailbox drain staged as one Append and, if a message
// released by those calls vouches for an entry, one Sync; a call whose
// message vouches for an entry is held until that Sync returns, everything
// else leaves at once. So no process acts on a transition the sender can
// lose; a storage error crash-stops the process rather than letting it
// equivocate.
//
// There is one encoding of an entry (appendEntry/decodeEntry); a decoded
// entry borrows its bytes from the buffer, and State.Apply copies what it
// keeps. The WAL
// frames each entry with a checksum; a snapshot is State.Entries, the
// entries that rebuild the state, under one checksum; Memory stages
// encoded entries and decodes them at Sync. See docs/DURABILITY.md for the
// full contract, the on-disk format and the recovery sequence.
package wal
