package wal

import (
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// BenchmarkDiskSnapshot times Disk.Snapshot of a kv-sized state: 2 000
// message records plus 100 000 application records of 100 B (≈ 10 MB),
// under SyncNone (the snapshot file itself is still fsynced).
func BenchmarkDiskSnapshot(b *testing.B) {
	d, err := OpenDisk(b.TempDir(), DiskOptions{Policy: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	entries := make([]Entry, 0, 102_000)
	for i := range 2_000 {
		entries = append(entries, Entry{Kind: EntryRecord, Rec: msgs.MsgRecord{
			M:     mcast.AppMsg{ID: mcast.MakeMsgID(1, uint32(i)), Dest: mcast.NewGroupSet(0, 1), Payload: make([]byte, 64)},
			Phase: msgs.PhaseCommitted,
			LTS:   mcast.Timestamp{Time: uint64(i), Group: 0},
			GTS:   mcast.Timestamp{Time: uint64(i) + 1, Group: 1},
		}})
	}
	rec := make([]byte, 100)
	for range 100_000 {
		entries = append(entries, Entry{Kind: EntryApp, App: rec})
	}
	if err := d.Append(entries...); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if err := d.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntryRoundTrip encodes and decodes one record entry, the kind a
// replica logs per message and phase: a 128-byte payload to two groups.
func BenchmarkEntryRoundTrip(b *testing.B) {
	e := Entry{Kind: EntryRecord, Rec: msgs.MsgRecord{
		M:     mcast.AppMsg{ID: mcast.MakeMsgID(1, 7), Dest: mcast.NewGroupSet(0, 1), Payload: make([]byte, 128)},
		Phase: msgs.PhaseCommitted,
		LTS:   mcast.Timestamp{Time: 41, Group: 0},
		GTS:   mcast.Timestamp{Time: 42, Group: 1},
	}}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		buf = appendEntry(buf[:0], &e)
		if _, err := decodeEntry(buf); err != nil {
			b.Fatal(err)
		}
	}
}
