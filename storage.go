package wbcast

import (
	"fmt"
	"path/filepath"

	"wbcast/internal/wal"
)

// Storage is a replica's durable store (see internal/wal for the
// contract). The interface is two-phase: Append stages WAL entries, Sync
// makes everything staged durable. The replica's shard loop is the store's
// only caller while the replica runs (Close and Shutdown use it once the
// loop has stopped), so implementations need no locking. The loop appends
// every state transition of a Handle call, and syncs those a message of
// the call vouches for to another process before releasing anything from
// that call, so whatever the rest of the cluster acts on is backed by
// durable state; the others ride the next sync (docs/DURABILITY.md). A
// storage error crash-stops the replica. Load, called once at
// construction, returns the folded durable state the protocol recovers
// from.
//
// Two implementations ship with the package — disk-backed stores built by
// DirStorage (an append-only checksummed WAL beside an atomically-replaced
// snapshot, with automatic log truncation) and the in-memory stores of
// MemoryStorage (durability boundary at Sync; survives simulated restarts,
// not process exits).
type Storage = wal.Storage

// DurableState is the folded durable state a Storage recovers: the paxos
// ballot/promise pair, the ACCEPTED/COMMITTED message records and the
// delivery frontier. Storage.Load returns it; protocol replicas replay it
// at construction.
type DurableState = wal.State

// StorageEntry is one WAL record: a crash-surviving state transition
// (ballot promise, accepted record, delivery-frontier advance, prune,
// wholesale state install, paxos ballot or slot).
type StorageEntry = wal.Entry

// SyncPolicy selects when a disk-backed store turns Sync calls into
// fsyncs — the durability/throughput trade.
type SyncPolicy = wal.SyncPolicy

// Sync policies for StorageOptions.Policy.
const (
	// SyncAlways fsyncs on every Sync call: full crash-consistency; every
	// message sent is backed by durable state. The default.
	SyncAlways = wal.SyncAlways
	// SyncNone never fsyncs (the OS page cache decides); for measuring the
	// WAL's append cost in isolation.
	SyncNone = wal.SyncNone
)

// StorageOptions tunes the disk-backed stores built by DirStorageWith.
// The zero value is the production-safe default, SyncAlways. There is no
// compaction setting: a store snapshots and truncates its WAL once the log
// has grown larger than both 4 MiB and its last snapshot.
type StorageOptions struct {
	// Policy selects the fsync schedule (default SyncAlways).
	Policy SyncPolicy
}

// DirStorage returns a Config.Storage factory that roots each locally
// hosted replica's store in its own subdirectory dir/p<pid>, with the
// default options (SyncAlways). Restarting a replica on the same directory
// recovers its durable state:
//
//	cfg.Storage = wbcast.DirStorage("/var/lib/wbcast")
func DirStorage(dir string) func(ProcessID) (Storage, error) {
	return DirStorageWith(dir, StorageOptions{})
}

// DirStorageWith is DirStorage with explicit options.
func DirStorageWith(dir string, opts StorageOptions) func(ProcessID) (Storage, error) {
	return func(pid ProcessID) (Storage, error) {
		return wal.OpenDisk(filepath.Join(dir, fmt.Sprintf("p%d", pid)), wal.DiskOptions{Policy: opts.Policy})
	}
}

// MemoryStorage returns a Config.Storage factory of in-memory stores. An
// in-memory store's durability boundary is Sync — entries staged by a
// Handle call whose Sync never ran are lost by a restart, exactly like a
// disk WAL's torn tail — but the store itself lives only as long as the
// deployment, so it provides recovery semantics without disk I/O: the
// right store for exercising crash-recovery on the Simulated transport
// (FaultPlan Crash/Restart schedules), not for surviving process exits.
func MemoryStorage() func(ProcessID) (Storage, error) {
	return func(ProcessID) (Storage, error) { return wal.NewMemory(), nil }
}
