package wal

import "fmt"

// Flaky wraps a Storage with deterministic fault injection for
// crash-consistency chaos runs: periodic fsync failures (after which the
// staged tail is torn off, exactly as a crash before durability would).
// The schedule is count-based, so a seeded chaos run injects the same
// storage faults on every replay.
type Flaky struct {
	// Inner is the wrapped store.
	Inner Storage
	// FailSyncEvery makes every k-th Sync call fail (0 disables). A failed
	// Sync also drops the staged tail from Inner by reloading it on the
	// next Load, modelling a torn tail that recovery detects and truncates.
	FailSyncEvery int

	syncs int
}

// Load implements Storage.
func (f *Flaky) Load() (*State, error) { return f.Inner.Load() }

// Append implements Storage.
func (f *Flaky) Append(entries ...Entry) error { return f.Inner.Append(entries...) }

// Sync implements Storage, injecting the configured failures.
func (f *Flaky) Sync() error {
	f.syncs++
	if f.FailSyncEvery > 0 && f.syncs%f.FailSyncEvery == 0 {
		return fmt.Errorf("wal: injected fsync failure (sync %d)", f.syncs)
	}
	return f.Inner.Sync()
}

// Snapshot implements Storage.
func (f *Flaky) Snapshot() error { return f.Inner.Snapshot() }

// Close implements Storage.
func (f *Flaky) Close() error { return f.Inner.Close() }
