package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// walFile frames entries as Disk.Append writes them.
func walFile(entries []Entry) []byte {
	var b []byte
	for i := range entries {
		at := len(b)
		b = appendEntry(append(b, make([]byte, frameHdr)...), &entries[i])
		sealFrame(b, at)
	}
	return b
}

// intactPrefix walks data as WAL frames. It returns the length of the run
// of intact frames (complete, checksummed, decodable), their fold, and
// whether what follows the run is at most one frame: the tail a crash may
// tear, which recovery truncates.
func intactPrefix(data []byte) (int, *State, bool) {
	s := NewState()
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHdr {
			return off, s, true
		}
		n := uint64(binary.LittleEndian.Uint32(rest))
		if uint64(len(rest)) < frameHdr+n {
			return off, s, true
		}
		payload := rest[frameHdr : frameHdr+n]
		e, err := decodeEntry(payload)
		if err != nil || crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:]) {
			return off, s, uint64(len(rest)) == frameHdr+n
		}
		s.Apply(e)
		off += frameHdr + int(n)
	}
	return off, s, true
}

// snapshotAndReopen checks that d's state survives Snapshot, Close and
// OpenDisk unchanged.
func snapshotAndReopen(t *testing.T, dir string, d *Disk) {
	t.Helper()
	want := encodeStorage(t, d)
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := OpenDisk(dir, DiskOptions{Policy: SyncNone})
	if err != nil {
		t.Fatalf("reopen after Snapshot: %v", err)
	}
	defer re.Close()
	if got := encodeStorage(t, re); !bytes.Equal(got, want) {
		t.Fatal("state changed across Snapshot and reopen")
	}
}

// FuzzOpenDisk opens arbitrary bytes, first as the WAL, then as the payload
// of a snapshot frame. OpenDisk must never panic; WAL damage is tolerated
// only in the final frame, which is truncated, and is ErrCorrupt anywhere
// else; snapshot damage is always ErrCorrupt; whatever opens survives
// Snapshot plus reopen unchanged.
func FuzzOpenDisk(f *testing.F) {
	framed := walFile(testEntries())
	f.Add(framed)
	f.Add(framed[:len(framed)-3]) // torn tail
	flipped := slices.Clone(framed)
	flipped[4] ^= 0xff // the first frame's checksum
	f.Add(flipped)
	f.Add([]byte(oldSnapMag + "\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		walPath := filepath.Join(dir, walName)
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		good, want, tornOnly := intactPrefix(data)
		d, err := OpenDisk(dir, DiskOptions{Policy: SyncNone})
		if !tornOnly {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damage before the final WAL frame: OpenDisk = %v, want ErrCorrupt", err)
			}
		} else {
			if err != nil {
				t.Fatalf("intact WAL but for its final frame: OpenDisk = %v", err)
			}
			if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(good) {
				t.Fatalf("WAL not truncated to its %d intact bytes: %v, %v", good, fi.Size(), err)
			}
			if !bytes.Equal(encodeStorage(t, d), stateBytes(want)) {
				t.Fatal("recovered state is not the fold of the intact frames")
			}
			snapshotAndReopen(t, dir, d)
		}

		dir = t.TempDir()
		snapPath := filepath.Join(dir, snapName)
		snap := append(append([]byte(snapMag), make([]byte, frameHdr)...), data...)
		sealFrame(snap, len(snapMag))
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err = OpenDisk(dir, DiskOptions{Policy: SyncNone})
		if foldFramed(NewState(), data) != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("undecodable snapshot: OpenDisk = %v, want ErrCorrupt", err)
			}
		} else {
			if err != nil {
				t.Fatalf("well-formed snapshot: OpenDisk = %v", err)
			}
			snapshotAndReopen(t, dir, d)
		}
		// Damage to any byte of a sealed snapshot is caught.
		snap[len(data)%len(snap)] ^= 0xff
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDisk(dir, DiskOptions{Policy: SyncNone}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("damaged snapshot: OpenDisk = %v, want ErrCorrupt", err)
		}
	})
}
