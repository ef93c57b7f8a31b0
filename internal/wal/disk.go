package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"wbcast/internal/obs"
)

// ErrCorrupt marks an unrecoverable log corruption: a checksum failure in
// the middle of the WAL (as opposed to a torn tail, which is silently
// truncated because it can only be the one record a crash interrupted).
// Recovery fails loudly on it rather than skipping records, since skipping
// could un-promise a ballot or resurrect a pruned message.
var ErrCorrupt = errors.New("wal: corrupt record")

// SyncPolicy selects when Disk turns Sync calls into fsyncs.
type SyncPolicy int

// Sync policies.
const (
	// SyncAlways fsyncs on every Sync call — full crash-consistency; every
	// message sent is backed by durable state.
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs (the OS page cache decides); for measuring the
	// WAL's append cost in isolation.
	SyncNone
)

// DiskOptions tunes a Disk store. The zero value is the production-safe
// default, SyncAlways.
type DiskOptions struct {
	// Policy selects the fsync schedule.
	Policy SyncPolicy
}

// Disk is the on-disk Storage: an append-only WAL of length-prefixed,
// CRC-checksummed entries beside an atomically-replaced snapshot file.
// Open replays snapshot + log into a folded in-memory mirror; Snapshot
// writes the mirror and truncates the log (GC). Sync does so once the WAL
// has grown larger than both compactFloor and the last snapshot, written or
// loaded. A snapshot is no larger than the state, so the WAL stays bounded
// by the state, and each logged byte costs O(1) amortised snapshot work.
type Disk struct {
	dir     string
	f       *os.File
	state   *State
	opts    DiskOptions
	metrics *obs.Store // WAL instrumentation; nil until SetMetrics

	size     int64 // current WAL length in bytes
	snapSize int64 // bytes of the last snapshot written or loaded
	pending  bool  // bytes written since the last fsync
	buf      []byte

	// Open-time replay stats, retained so SetMetrics can report a replay
	// that happened before the instrumentation existed.
	replayed int
	torn     bool
}

// SetMetrics installs (or replaces) the store's instrumentation and
// reports the open-time replay, which ran before any instrumentation
// existed.
func (d *Disk) SetMetrics(m *obs.Store) {
	d.metrics = m
	m.OnReplay(d.replayed, d.torn)
	m.SetWALBytes(d.size)
}

const (
	walName  = "wal"
	snapName = "snapshot"
	snapMag  = "wbsnap02"
	frameHdr = 8 // u32 length + u32 crc
	// compactFloor is the WAL length below which Sync never compacts, so a
	// small state is not rewritten for every few entries.
	compactFloor = 4 << 20
	// oldSnapMag heads the retired snapshot layout (a versioned state
	// encoding), which this version refuses rather than reads.
	oldSnapMag = "wbsnap01"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenDisk opens (creating if needed) the store rooted at dir and replays
// snapshot + WAL. A torn final record — a record the interrupting crash
// left incomplete or checksum-broken at the very tail — is truncated away;
// corruption anywhere earlier returns ErrCorrupt.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	d := &Disk{dir: dir, state: NewState(), opts: opts}
	if err := d.loadSnapshot(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	d.f = f
	if err := d.replay(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(d.size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return d, nil
}

func (d *Disk) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(d.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if bytes.HasPrefix(data, []byte(oldSnapMag)) {
		return fmt.Errorf("wal: snapshot is %s, a format this version does not read (docs/DURABILITY.md)", oldSnapMag)
	}
	if len(data) < len(snapMag)+frameHdr || string(data[:len(snapMag)]) != snapMag {
		return fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	body := data[len(snapMag):]
	n := binary.LittleEndian.Uint32(body[0:4])
	sum := binary.LittleEndian.Uint32(body[4:8])
	payload := body[frameHdr:]
	if uint64(n) != uint64(len(payload)) || crc32.Checksum(payload, crcTable) != sum {
		return fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	if err := foldFramed(d.state, payload); err != nil {
		return fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	d.snapSize = int64(len(data))
	return nil
}

// replay folds every WAL record into the mirror, truncating a torn tail.
func (d *Disk) replay() error {
	data, err := io.ReadAll(d.f)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	off := 0
	entries := 0
	torn := false
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHdr {
			torn = true // crash mid-header
			break
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if len(rest) < frameHdr+n {
			torn = true // crash mid-payload
			break
		}
		payload := rest[frameHdr : frameHdr+n]
		if crc32.Checksum(payload, crcTable) != sum {
			if off+frameHdr+n == len(data) {
				torn = true // bit-flip or partial write of the final record
				break
			}
			return fmt.Errorf("%w: checksum mismatch at offset %d (%d bytes follow)",
				ErrCorrupt, off, len(data)-off-frameHdr-n)
		}
		e, err := decodeEntry(payload)
		if err != nil {
			if off+frameHdr+n == len(data) {
				torn = true
				break
			}
			return fmt.Errorf("%w: offset %d: %v", ErrCorrupt, off, err)
		}
		d.state.Apply(e)
		entries++
		off += frameHdr + n
	}
	d.replayed, d.torn = entries, torn
	if torn {
		if err := d.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	d.size = int64(off)
	return nil
}

// Load implements Storage.
func (d *Disk) Load() (*State, error) {
	if d.f == nil {
		return nil, errors.New("wal: load from closed store")
	}
	return copyState(d.state), nil
}

// Append implements Storage: each entry is framed, checksummed and written
// (not yet fsynced), and folded into the mirror.
func (d *Disk) Append(entries ...Entry) error {
	if d.f == nil {
		return errors.New("wal: append to closed store")
	}
	start := time.Now()
	d.buf = d.buf[:0]
	for i := range entries {
		from := len(d.buf)
		d.buf = appendEntry(append(d.buf, 0, 0, 0, 0, 0, 0, 0, 0), &entries[i])
		sealFrame(d.buf, from)
	}
	if _, err := d.f.Write(d.buf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		d.state.Apply(e)
	}
	d.size += int64(len(d.buf))
	d.pending = true
	d.metrics.OnAppend(time.Since(start), d.size)
	return nil
}

// Sync implements Storage, honouring the configured policy, and snapshots
// + truncates once the WAL outgrows both compactFloor and the last snapshot.
func (d *Disk) Sync() error {
	if d.f == nil {
		return errors.New("wal: sync of closed store")
	}
	if d.pending && d.opts.Policy == SyncAlways {
		start := time.Now()
		if err := d.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		d.metrics.OnFsync(time.Since(start))
		d.pending = false
	}
	if d.size > max(compactFloor, d.snapSize) {
		return d.Snapshot()
	}
	return nil
}

// Snapshot implements Storage: the mirror state's Entries, framed as one
// checksummed payload, are written to a temporary file, fsynced,
// atomically renamed over the previous snapshot, and the WAL is truncated
// to empty (log GC).
func (d *Disk) Snapshot() error {
	if d.f == nil {
		return errors.New("wal: snapshot of closed store")
	}
	start := time.Now()
	d.buf = append(append(d.buf[:0], snapMag...), 0, 0, 0, 0, 0, 0, 0, 0)
	for e := range d.state.Entries() {
		d.buf = appendFramed(d.buf, e)
	}
	sealFrame(d.buf, len(snapMag))

	tmp := filepath.Join(d.dir, snapName+".tmp")
	if err := writeFileSync(tmp, d.buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapName)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(d.dir); err != nil {
		return err
	}
	// The snapshot covers everything the WAL holds; truncate it (GC).
	if err := d.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := d.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	d.size, d.snapSize = 0, int64(len(d.buf))
	d.pending = false
	d.metrics.OnSnapshot(time.Since(start), int64(len(d.buf)))
	d.metrics.SetWALBytes(0)
	return nil
}

// Close implements Storage: a final forced fsync, then release.
func (d *Disk) Close() error {
	if d.f == nil {
		return nil
	}
	var err error
	if d.pending {
		err = d.f.Sync()
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	d.f = nil
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// sealFrame fills in the [u32 length][u32 crc] header reserved at buf[at:]
// for the payload that follows it to the end of buf.
func sealFrame(buf []byte, at int) {
	payload := buf[at+frameHdr:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.Checksum(payload, crcTable))
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = f.Sync()
	f.Close()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
