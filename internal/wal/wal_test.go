package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// testEntries returns one entry of every kind, exercising every branch of
// the codec and of State.Apply.
func testEntries() []Entry {
	msg := mcast.AppMsg{
		ID:      mcast.MakeMsgID(7, 3),
		Dest:    mcast.NewGroupSet(0, 2),
		Payload: []byte("payload-a"),
	}
	return []Entry{
		{Kind: EntryBallot, Bal: mcast.Ballot{N: 2, Proc: 1}, CBal: mcast.Ballot{N: 1, Proc: 0}, Clock: 9},
		{Kind: EntryRecord, Rec: msgs.MsgRecord{
			M: msg, Phase: msgs.PhaseAccepted,
			LTS: mcast.Timestamp{Time: 4, Group: 0},
		}},
		{Kind: EntryRecord, Rec: msgs.MsgRecord{
			M: msg, Phase: msgs.PhaseCommitted,
			LTS: mcast.Timestamp{Time: 4, Group: 0},
			GTS: mcast.Timestamp{Time: 5, Group: 2},
		}},
		{Kind: EntryFrontier, Max: mcast.Timestamp{Time: 5, Group: 2}},
		{Kind: EntryState, Bal: mcast.Ballot{N: 3, Proc: 2}, CBal: mcast.Ballot{N: 3, Proc: 2}, Clock: 12,
			Recs: []msgs.MsgRecord{{
				M:     mcast.AppMsg{ID: mcast.MakeMsgID(8, 1), Dest: mcast.NewGroupSet(1), Payload: []byte("b")},
				Phase: msgs.PhaseProposed, LTS: mcast.Timestamp{Time: 6, Group: 1},
			}}},
		{Kind: EntryPrune, IDs: []mcast.MsgID{mcast.MakeMsgID(8, 1)}},
		{Kind: EntryPaxosBallot, Bal: mcast.Ballot{N: 4, Proc: 0}, CBal: mcast.Ballot{N: 4, Proc: 0}},
		{Kind: EntryPaxosCmd, Slot: 2, Bal: mcast.Ballot{N: 4, Proc: 0}, Committed: true,
			Cmd: msgs.Command{Op: msgs.CmdAssign, M: msg, LTS: mcast.Timestamp{Time: 4, Group: 0}}},
		{Kind: EntryDelivered, IDs: []mcast.MsgID{msg.ID}},
		{Kind: EntryAppSnapshot, App: []byte("app-snapshot")},
		{Kind: EntryApp, App: []byte("app-record-1")},
		{Kind: EntryApp, App: []byte("app-record-2")},
	}
}

// stateBytes is a state's snapshot payload: its canonical encoding.
func stateBytes(s *State) []byte {
	var b []byte
	for e := range s.Entries() {
		b = appendFramed(b, e)
	}
	return b
}

func mustLoad(t *testing.T, s Storage) *State {
	t.Helper()
	st, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return st
}

// encodeStorage folds a store's Load result to canonical bytes.
func encodeStorage(t *testing.T, s Storage) []byte {
	t.Helper()
	return stateBytes(mustLoad(t, s))
}

func TestMemoryStagedUntilSync(t *testing.T) {
	m := NewMemory()
	entries := testEntries()
	if err := m.Append(entries[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Load models a crash: the unsynced tail must be gone.
	st, err := m.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !st.Empty() {
		t.Fatalf("unsynced append visible after Load: %+v", st)
	}
	if err := m.Append(entries[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := m.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st, err = m.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Ballot != entries[0].Bal || st.CBallot != entries[0].CBal || st.Clock != entries[0].Clock {
		t.Fatalf("synced ballot lost: got %v/%v clock %d", st.Ballot, st.CBallot, st.Clock)
	}
}

func TestMemorySurvivesClose(t *testing.T) {
	m := NewMemory()
	if err := m.Append(testEntries()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Append(testEntries()[0]); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	// A restarted replica Loads again; durable state survives Close.
	st, err := m.Load()
	if err != nil {
		t.Fatalf("Load after Close: %v", err)
	}
	if st.Empty() {
		t.Fatal("durable state lost across Close")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	if err := d.Append(testEntries()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	want := encodeStorage(t, d)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := encodeStorage(t, re); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs from written state\n got %x\nwant %x", got, want)
	}
	if re.replayed != len(testEntries()) {
		t.Fatalf("replayed %d entries, want %d", re.replayed, len(testEntries()))
	}
	if re.torn {
		t.Fatal("clean log reported a torn tail")
	}
}

func TestDiskSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	if err := d.Append(testEntries()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	want := encodeStorage(t, d)
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// The snapshot garbage-collects the log.
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	if fi.Size() != 0 {
		t.Fatalf("WAL is %d bytes after snapshot, want 0", fi.Size())
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := encodeStorage(t, re); !bytes.Equal(got, want) {
		t.Fatalf("snapshot round-trip changed state\n got %x\nwant %x", got, want)
	}
	if re.replayed != 0 {
		t.Fatalf("replayed %d WAL entries after snapshot, want 0", re.replayed)
	}
}

// TestDiskAutoSnapshot pins Sync's compaction rule: the WAL is compacted
// once it has grown larger than both compactFloor and the last snapshot,
// written or loaded. A small state compacts at the floor; a state whose
// snapshot is larger than the floor compacts only once the WAL exceeds that
// snapshot, also after a reopen.
func TestDiskAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{Policy: SyncNone})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer func() { d.Close() }()
	appSnap := func(n int) Entry { return Entry{Kind: EntryAppSnapshot, App: bytes.Repeat([]byte{'s'}, n)} }
	// compactAt appends e and syncs until a Sync compacts, and requires the
	// WAL to have passed limit by at most that one entry.
	compactAt := func(what string, e Entry, limit int64) {
		t.Helper()
		for i := 0; ; i++ {
			if err := d.Append(e); err != nil {
				t.Fatalf("Append: %v", err)
			}
			size := d.size
			if err := d.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if d.size == 0 {
				if frame := size / int64(i+1); size <= limit || size > limit+frame {
					t.Fatalf("%s: compacted a %d-byte WAL, want the first length past %d", what, size, limit)
				}
				return
			}
			if i == 1000 {
				t.Fatalf("%s: the WAL grew to %d bytes without a compaction (limit %d)", what, d.size, limit)
			}
		}
	}

	small := appSnap(64 << 10)
	compactAt("a small state", small, compactFloor)
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot file after compacting: %v", err)
	}
	if d.snapSize >= compactFloor {
		t.Fatalf("a small state wrote a %d-byte snapshot", d.snapSize)
	}

	// A 6 MiB state is past the floor at once; its snapshot is then the limit.
	compactAt("a large state", appSnap(6<<20), compactFloor)
	large := d.snapSize
	compactAt("after a large snapshot", small, large)

	compactAt("a large state again", appSnap(6<<20), compactFloor)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDisk(dir, DiskOptions{Policy: SyncNone}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, snapName)); err != nil || d.snapSize != fi.Size() || d.snapSize <= compactFloor {
		t.Fatalf("reopened with a %d-byte snapshot loaded (%v), want the file's length, past the floor", d.snapSize, err)
	}
	compactAt("after loading a large snapshot", small, d.snapSize)
}

// walFrames parses the raw WAL into frames (offset, length including
// header) so corruption tests can damage a chosen record.
func walFrames(t *testing.T, data []byte) [][2]int {
	t.Helper()
	var frames [][2]int
	off := 0
	for off < len(data) {
		if len(data)-off < frameHdr {
			t.Fatalf("short frame header at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		frames = append(frames, [2]int{off, frameHdr + n})
		off += frameHdr + n
	}
	return frames
}

// writeWAL builds a store with every test entry synced, closes it, and
// returns the dir plus the raw WAL bytes.
func writeWAL(t *testing.T) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	if err := d.Append(testEntries()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	return dir, raw
}

func TestDiskTornTailTruncated(t *testing.T) {
	cases := []struct {
		name string
		tear func(raw []byte, frames [][2]int) []byte
	}{
		{"mid-header", func(raw []byte, frames [][2]int) []byte {
			last := frames[len(frames)-1]
			return raw[:last[0]+frameHdr/2]
		}},
		{"mid-payload", func(raw []byte, frames [][2]int) []byte {
			last := frames[len(frames)-1]
			return raw[:last[0]+last[1]-3]
		}},
		{"final-checksum", func(raw []byte, frames [][2]int) []byte {
			last := frames[len(frames)-1]
			out := append([]byte(nil), raw...)
			out[last[0]+last[1]-1] ^= 0xff // flip a payload byte of the final record
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, raw := writeWAL(t)
			frames := walFrames(t, raw)
			torn := tc.tear(raw, frames)
			if err := os.WriteFile(filepath.Join(dir, walName), torn, 0o644); err != nil {
				t.Fatalf("write torn wal: %v", err)
			}

			// Expected state: every frame but the last, folded.
			want := NewState()
			for _, e := range testEntries()[:len(frames)-1] {
				want.Apply(e)
			}

			d, err := OpenDisk(dir, DiskOptions{})
			if err != nil {
				t.Fatalf("OpenDisk on torn log: %v", err)
			}
			defer d.Close()
			if !d.torn {
				t.Fatal("torn tail not reported")
			}
			if got := encodeStorage(t, d); !bytes.Equal(got, stateBytes(want)) {
				t.Fatalf("recovered state is not the pre-tear prefix")
			}
			// The torn bytes must be physically gone so new appends start a
			// clean frame.
			fi, err := os.Stat(filepath.Join(dir, walName))
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			lastOff := int64(frames[len(frames)-1][0])
			if fi.Size() != lastOff {
				t.Fatalf("WAL is %d bytes after recovery, want truncated to %d", fi.Size(), lastOff)
			}
		})
	}
}

func TestDiskMidLogCorruptionFailsLoudly(t *testing.T) {
	dir, raw := writeWAL(t)
	frames := walFrames(t, raw)
	if len(frames) < 3 {
		t.Fatalf("need ≥3 frames, got %d", len(frames))
	}
	mid := frames[1]
	raw[mid[0]+frameHdr] ^= 0xff // flip the first payload byte of frame 1
	if err := os.WriteFile(filepath.Join(dir, walName), raw, 0o644); err != nil {
		t.Fatalf("write corrupt wal: %v", err)
	}
	_, err := OpenDisk(dir, DiskOptions{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenDisk = %v, want ErrCorrupt", err)
	}
}

func TestDiskCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	if err := d.Append(testEntries()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := OpenDisk(dir, DiskOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenDisk = %v, want ErrCorrupt", err)
	}
}

func TestDiskFrameChecksum(t *testing.T) {
	// Sanity-check the frame layout the corruption tests above rely on:
	// [u32 len][u32 crc32c][payload].
	dir, raw := writeWAL(t)
	_ = dir
	frames := walFrames(t, raw)
	for i, fr := range frames {
		payload := raw[fr[0]+frameHdr : fr[0]+fr[1]]
		sum := binary.LittleEndian.Uint32(raw[fr[0]+4:])
		if crc32.Checksum(payload, crcTable) != sum {
			t.Fatalf("frame %d checksum mismatch", i)
		}
	}
}

func TestDiskSyncPolicies(t *testing.T) {
	// SyncNone must still persist everything by Close: the policy only
	// schedules fsyncs, Close forces a final one.
	for _, pol := range []SyncPolicy{SyncAlways, SyncNone} {
		dir := t.TempDir()
		d, err := OpenDisk(dir, DiskOptions{Policy: pol})
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		if err := d.Append(testEntries()...); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := d.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		want := encodeStorage(t, d)
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		re, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := encodeStorage(t, re); !bytes.Equal(got, want) {
			t.Fatalf("policy %d lost state across Close/reopen", pol)
		}
		re.Close()
	}
}

func TestFlakyFailSync(t *testing.T) {
	f := &Flaky{Inner: NewMemory(), FailSyncEvery: 2}
	e := testEntries()[0]
	if err := f.Append(e); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync 1: %v", err)
	}
	if err := f.Append(testEntries()[3]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := f.Sync(); err == nil {
		t.Fatal("Sync 2 succeeded, want injected failure")
	}
	// The crash-stopped replica reboots: the failed sync's tail is gone,
	// the first sync's state survives.
	st, err := f.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Ballot != e.Bal {
		t.Fatalf("first synced ballot lost: %v", st.Ballot)
	}
	if !st.MaxDelivered.IsZero() {
		t.Fatalf("unsynced frontier survived the injected failure: %v", st.MaxDelivered)
	}
}

func TestStateEncodeDeterministic(t *testing.T) {
	// Two equal states, built by folding independent entries in opposite
	// orders, snapshot to identical files, and decoding the snapshot
	// payload re-encodes to the same bytes.
	entries := []Entry{
		{Kind: EntryRecord, Rec: randRecord(rand.New(rand.NewPCG(1, 1)), 1)},
		{Kind: EntryRecord, Rec: randRecord(rand.New(rand.NewPCG(2, 2)), 2)},
		{Kind: EntryPaxosCmd, Slot: 9, Cmd: msgs.Command{Op: msgs.CmdCommit, ID: 3}},
		{Kind: EntryPaxosCmd, Slot: 4, Cmd: msgs.Command{Op: msgs.CmdNoop}},
		{Kind: EntryDelivered, IDs: []mcast.MsgID{5, 1}},
		{Kind: EntryDelivered, IDs: []mcast.MsgID{2}},
	}
	var snaps [2][]byte
	for i := range snaps {
		dir := t.TempDir()
		d, err := OpenDisk(dir, DiskOptions{Policy: SyncNone})
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		for j := range entries {
			if i == 1 {
				j = len(entries) - 1 - j
			}
			if err := d.Append(entries[j]); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := d.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if snaps[i], err = os.ReadFile(filepath.Join(dir, snapName)); err != nil {
			t.Fatalf("read snapshot: %v", err)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("two equal states snapshot differently")
	}
	payload := snaps[0][len(snapMag)+frameHdr:]
	dec := NewState()
	if err := foldFramed(dec, payload); err != nil {
		t.Fatalf("foldFramed: %v", err)
	}
	if got := stateBytes(dec); !bytes.Equal(got, payload) {
		t.Fatal("decode/encode round trip not identical")
	}
}

// randRecord returns a record of message id with random content.
func randRecord(rng *rand.Rand, id uint64) msgs.MsgRecord {
	payload := make([]byte, rng.IntN(16))
	for i := range payload {
		payload[i] = byte(rng.Uint32())
	}
	return msgs.MsgRecord{
		M:     mcast.AppMsg{ID: mcast.MsgID(id), Dest: mcast.NewGroupSet(mcast.GroupID(rng.IntN(3))), Payload: payload},
		Phase: msgs.Phase(rng.IntN(3)),
		LTS:   mcast.Timestamp{Time: rng.Uint64N(100), Group: mcast.GroupID(rng.IntN(3))},
		GTS:   mcast.Timestamp{Time: rng.Uint64N(100), Group: mcast.GroupID(rng.IntN(3))},
	}
}

// randEntry returns a random entry of a random kind over a small ID space,
// so records, prunes and deliveries collide.
func randEntry(rng *rand.Rand) Entry {
	ballot := func() mcast.Ballot { return mcast.Ballot{N: rng.Uint64N(10), Proc: mcast.ProcessID(rng.IntN(5))} }
	ids := func() []mcast.MsgID {
		out := make([]mcast.MsgID, rng.IntN(4))
		for i := range out {
			out[i] = mcast.MsgID(rng.IntN(20))
		}
		return out
	}
	app := func() []byte { return []byte(strings.Repeat("x", rng.IntN(8))) }
	switch kind := EntryKind(1 + rng.IntN(int(EntryDelivered))); kind {
	case EntryBallot, EntryPaxosBallot:
		return Entry{Kind: kind, Bal: ballot(), CBal: ballot(), Clock: rng.Uint64N(100)}
	case EntryRecord:
		return Entry{Kind: kind, Rec: randRecord(rng, rng.Uint64N(20))}
	case EntryFrontier:
		return Entry{Kind: kind, Max: mcast.Timestamp{Time: rng.Uint64N(100)}}
	case EntryPrune, EntryDelivered:
		return Entry{Kind: kind, IDs: ids()}
	case EntryState:
		recs := make([]msgs.MsgRecord, rng.IntN(4))
		for i := range recs {
			recs[i] = randRecord(rng, rng.Uint64N(20))
		}
		return Entry{Kind: kind, Bal: ballot(), CBal: ballot(), Clock: rng.Uint64N(100), Recs: recs}
	case EntryPaxosCmd:
		return Entry{Kind: kind, Slot: rng.Uint64N(10), Bal: ballot(), Committed: rng.IntN(2) == 0,
			Cmd: msgs.Command{Op: msgs.CmdAssign, M: randRecord(rng, rng.Uint64N(20)).M}}
	default:
		return Entry{Kind: kind, App: app()}
	}
}

func TestEntriesFoldReproducesState(t *testing.T) {
	check := func(name string, s *State) {
		t.Helper()
		if got := copyState(s); !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: folding Entries changed the state\n got %+v\nwant %+v", name, got, s)
		}
	}
	every := NewState()
	for _, e := range testEntries() {
		every.Apply(e)
	}
	check("one entry of every kind", every)
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		s := NewState()
		for range rng.IntN(40) {
			s.Apply(randEntry(rng))
		}
		check(fmt.Sprintf("seed %d", seed), s)
	}
}

func TestDiskRefusesOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), []byte(oldSnapMag+"\x05\x00\x00\x00old state"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := OpenDisk(dir, DiskOptions{}); err == nil || !strings.Contains(err.Error(), oldSnapMag) {
		t.Fatalf("OpenDisk = %v, want an error naming %s", err, oldSnapMag)
	}
}

// TestDiskCrashBetweenSnapshotAndTruncate reopens a store whose snapshot
// was renamed into place but whose WAL was not yet truncated: every entry
// kind folds idempotently except EntryApp, whose records come back twice.
func TestDiskCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	if err := d.Append(testEntries()...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	tail := testEntries()[:4] // ballot, two records, frontier
	tail = append(tail, Entry{Kind: EntryApp, App: []byte("tail-1")}, Entry{Kind: EntryApp, App: []byte("tail-2")})
	if err := d.Append(tail...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	want := mustLoad(t, d)
	walPath := filepath.Join(dir, walName)
	untruncated, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.WriteFile(walPath, untruncated, 0o644); err != nil {
		t.Fatalf("restore wal: %v", err)
	}

	re, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	got := mustLoad(t, re)
	wantLog := append(slices.Clone(want.AppLog), []byte("tail-1"), []byte("tail-2"))
	if !reflect.DeepEqual(got.AppLog, wantLog) {
		t.Fatalf("app log = %q, want the WAL's app records repeated: %q", got.AppLog, wantLog)
	}
	got.AppLog = want.AppLog
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("protocol state changed by replaying the untruncated WAL\n got %+v\nwant %+v", got, want)
	}
}
