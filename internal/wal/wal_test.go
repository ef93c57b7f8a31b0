package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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
		{Kind: EntryFrontier, Max: mcast.Timestamp{Time: 5, Group: 2}, Last: mcast.Timestamp{Time: 5, Group: 2}},
		{Kind: EntryState, Bal: mcast.Ballot{N: 3, Proc: 2}, CBal: mcast.Ballot{N: 3, Proc: 2}, Clock: 12,
			Recs: []msgs.MsgRecord{{
				M:     mcast.AppMsg{ID: mcast.MakeMsgID(8, 1), Dest: mcast.NewGroupSet(1), Payload: []byte("b")},
				Phase: msgs.PhaseProposed, LTS: mcast.Timestamp{Time: 6, Group: 1},
			}}},
		{Kind: EntryPrune, IDs: []mcast.MsgID{mcast.MakeMsgID(8, 1)}},
		{Kind: EntryPaxosBallot, Bal: mcast.Ballot{N: 4, Proc: 0}, CBal: mcast.Ballot{N: 4, Proc: 0}},
		{Kind: EntryPaxosCmd, Slot: 2, Bal: mcast.Ballot{N: 4, Proc: 0}, Committed: true,
			Cmd: msgs.Command{Op: msgs.CmdAssign, M: msg, LTS: mcast.Timestamp{Time: 4, Group: 0}}},
	}
}

// encodeStorage folds a store's Load result to canonical bytes.
func encodeStorage(t *testing.T, s Storage) []byte {
	t.Helper()
	st, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return st.Encode(nil)
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

func TestDiskAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SnapshotThreshold: 64})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer d.Close()
	for i := 0; i < 16; i++ {
		e := testEntries()[1] // a record entry, comfortably > 4 bytes
		if err := d.Append(e); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := d.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	if d.size > 64 {
		t.Fatalf("WAL grew to %d bytes; auto-snapshot at threshold 64 never fired", d.size)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot file after crossing threshold: %v", err)
	}
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
			if got := encodeStorage(t, d); !bytes.Equal(got, want.Encode(nil)) {
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
	build := func() *State {
		s := NewState()
		for _, e := range testEntries() {
			s.Apply(e)
		}
		return s
	}
	a, b := build().Encode(nil), build().Encode(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical states encoded differently")
	}
	dec, err := DecodeState(a)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if got := dec.Encode(nil); !bytes.Equal(got, a) {
		t.Fatal("decode/encode round trip not identical")
	}
}
