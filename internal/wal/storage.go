package wal

import "errors"

// Storage is a replica's durable store. The contract is two-phase:
// Append stages entries, Sync makes everything staged durable. A runtime
// (node.Step) hands over what a batch of Handle calls staged as one Append
// and, if anything released by those calls vouches for an entry, one Sync,
// before releasing it; on error it crash-stops the process.
//
// Load is called once, before the replica joins the cluster; it returns
// the folded durable state (never nil; Empty() distinguishes a cold
// boot). Implementations are used by one goroutine at a time — not always
// the same one: the calls of one hand-off run on a goroutine beside the
// shard's loop, the next hand-off's on another, never overlapping.
type Storage interface {
	// Load returns the durable state. The caller owns the result.
	Load() (*State, error)
	// Append stages entries for durability. Entries may alias received
	// messages: implementations must encode or deep-copy during the call
	// and not retain any entry slice afterwards.
	Append(entries ...Entry) error
	// Sync makes every staged entry durable.
	Sync() error
	// Snapshot captures the folded state and truncates the log. Called by
	// clean shutdown paths; implementations also snapshot on their own
	// policy.
	Snapshot() error
	// Close releases resources after a final Sync. The Storage is unusable
	// afterwards.
	Close() error
}

// Memory is an in-memory Storage whose durability boundary is Sync:
// appended entries stage, encoded, in a tail buffer and fold into the
// durable state only when Sync succeeds, exactly mirroring a disk WAL whose
// unsynced tail is torn off by a crash. It is the default store for
// simulator restarts and the base of the chaos fake; every simulated
// durable run exercises the entry codec Disk writes.
type Memory struct {
	durable *State
	staged  []byte // appendFramed entries since the last Sync
	closed  bool
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{durable: NewState()}
}

// Load implements Storage. It also discards any unsynced tail, modelling
// the data loss of a crash: Load is only ever called by a (re)booting
// replica.
func (m *Memory) Load() (*State, error) {
	m.staged = m.staged[:0]
	m.closed = false
	return copyState(m.durable), nil
}

// Append implements Storage.
func (m *Memory) Append(entries ...Entry) error {
	if m.closed {
		return errors.New("wal: append to closed store")
	}
	for i := range entries {
		m.staged = appendFramed(m.staged, &entries[i])
	}
	return nil
}

// Sync implements Storage.
func (m *Memory) Sync() error {
	if m.closed {
		return errors.New("wal: sync of closed store")
	}
	err := foldFramed(m.durable, m.staged)
	m.staged = m.staged[:0]
	return err
}

// Snapshot implements Storage (a no-op beyond Sync: the folded state is
// the only representation).
func (m *Memory) Snapshot() error { return m.Sync() }

// Close implements Storage. The durable state survives Close so a
// restarted replica can Load it again.
func (m *Memory) Close() error {
	err := m.Sync()
	m.closed = true
	return err
}
