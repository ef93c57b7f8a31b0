package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"wbcast"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
)

// walCounters accumulates what the stores of one deployment did; every
// store shares it. The counts are atomics, read at the window edges.
type walCounters struct {
	appends, syncs   atomic.Int64
	appendNs, syncNs atomic.Int64
	walBytes         atomic.Int64
}

type walSnapshot struct {
	appends, syncs, appendNs, syncNs, walBytes int64
}

func (c *walCounters) snapshot() walSnapshot {
	return walSnapshot{
		appends: c.appends.Load(), syncs: c.syncs.Load(),
		appendNs: c.appendNs.Load(), syncNs: c.syncNs.Load(),
		walBytes: c.walBytes.Load(),
	}
}

func (a walSnapshot) sub(b walSnapshot) walSnapshot {
	return walSnapshot{
		appends: a.appends - b.appends, syncs: a.syncs - b.syncs,
		appendNs: a.appendNs - b.appendNs, syncNs: a.syncNs - b.syncNs,
		walBytes: a.walBytes - b.walBytes,
	}
}

// costStore is the Config.Storage decorator of kv-durable, the only wrapper
// on the measured path: it charges every Sync the injected cost before
// delegating to the real disk WAL (opened with SyncNone), and counts and
// times the calls, so the wal.* metrics are taken through the public API.
type costStore struct {
	inner   wal.Storage
	waiter  *syncWaiter
	walPath string
	size    int64 // last observed length of the WAL file
	c       *walCounters
}

// openCostStore opens the real disk WAL of process pid under dir.
func openCostStore(dir string, pid wbcast.ProcessID, c *walCounters) (*costStore, error) {
	inner, err := wbcast.DirStorageWith(dir, wbcast.StorageOptions{Policy: wbcast.SyncNone})(pid)
	if err != nil {
		return nil, err
	}
	waiter, err := newSyncWaiter()
	if err != nil {
		inner.Close()
		return nil, err
	}
	return &costStore{inner: inner, waiter: waiter, walPath: filepath.Join(dir, fmt.Sprintf("p%d", pid), "wal"), c: c}, nil
}

func (s *costStore) Load() (*wal.State, error) { return s.inner.Load() }

func (s *costStore) Append(entries ...wal.Entry) error {
	t0 := time.Now()
	err := s.inner.Append(entries...)
	s.c.appendNs.Add(int64(time.Since(t0)))
	s.c.appends.Add(1)
	// The WAL writes through on Append, so the file's growth is what this
	// call logged; a shrink is a snapshot truncation, after which the new
	// length is what was written since.
	if fi, serr := os.Stat(s.walPath); serr == nil {
		grown := fi.Size() - s.size
		if grown < 0 {
			grown = fi.Size()
		}
		s.c.walBytes.Add(grown)
		s.size = fi.Size()
	}
	return err
}

func (s *costStore) Sync() error {
	t0 := time.Now()
	err := s.waiter.wait(syncCost)
	if err == nil {
		err = s.inner.Sync()
	}
	s.c.syncNs.Add(int64(time.Since(t0)))
	s.c.syncs.Add(1)
	return err
}

func (s *costStore) Snapshot() error { return s.inner.Snapshot() }

func (s *costStore) Close() error {
	s.waiter.close() //nolint:errcheck // a timer descriptor holds no data
	return s.inner.Close()
}

// SetMetrics forwards the replica's WAL instrumentation to the disk store,
// which the decorator would otherwise hide from wbcast.NewReplica, so
// observability stays at its default.
func (s *costStore) SetMetrics(m *obs.Store) {
	if im, ok := s.inner.(interface{ SetMetrics(*obs.Store) }); ok {
		im.SetMetrics(m)
	}
}
