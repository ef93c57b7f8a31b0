package kvstore

import (
	"bytes"
	"testing"

	"wbcast/internal/mcast"
)

// fuzzOps is one op of each kind, the seeds of the op fuzzers.
func fuzzOps() []Op {
	return []Op{
		{Kind: OpGet, Key: []byte("k")},
		{Kind: OpPut, Key: []byte("k"), Val: []byte("v")},
		{Kind: OpDelete, Key: []byte("k2")},
		{Kind: OpTxn, Subs: []Op{
			{Kind: OpGet, Key: []byte("a")},
			{Kind: OpPut, Key: []byte("b"), Val: []byte("w")},
		}},
	}
}

// FuzzConflicts guards the conflict relation on the path where it actually
// runs: raw payload bytes straight off the wire, before anything has
// validated them. The relation must never panic, must be symmetric (the
// protocol evaluates it from both ends), must treat any undecodable payload
// as conflicting with everything (the conservative default the safety
// argument rests on), and must depend only on the decoded operation — a
// re-encoding of the decoded value must get the same verdict.
func FuzzConflicts(f *testing.F) {
	var encoded [][]byte
	for _, op := range fuzzOps() {
		encoded = append(encoded, EncodeOp(nil, op))
	}
	for _, a := range encoded {
		for _, b := range encoded {
			f.Add(a, b)
		}
		f.Add(a, []byte{})
		f.Add(a, []byte{0xFF, 0xFF})
	}
	f.Add([]byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		got := Conflicts(a, b)
		if rev := Conflicts(b, a); rev != got {
			t.Fatalf("relation not symmetric: Conflicts(a,b)=%v but Conflicts(b,a)=%v\n a=%x\n b=%x", got, rev, a, b)
		}
		opA, errA := DecodeOp(a)
		opB, errB := DecodeOp(b)
		if errA != nil || errB != nil {
			if !got {
				t.Fatalf("undecodable payload must conflict with everything (errA=%v errB=%v)\n a=%x\n b=%x", errA, errB, a, b)
			}
			return
		}
		if got != OpsConflict(opA, opB) {
			t.Fatalf("Conflicts disagrees with OpsConflict on decodable payloads\n a=%x\n b=%x", a, b)
		}
		ra, rb := EncodeOp(nil, opA), EncodeOp(nil, opB)
		if Conflicts(ra, rb) != got {
			t.Fatalf("verdict changed across re-encoding: was %v\n a=%x → %x\n b=%x → %x", got, a, ra, b, rb)
		}
		// A write op shares its own keys, so it must self-conflict; the
		// relation may only report self-commutation for pure reads.
		selfA := Conflicts(a, a)
		wantSelf := false
		for _, x := range opA.Flatten() {
			if x.Kind != OpGet {
				wantSelf = true
			}
		}
		// Degenerate encodings (empty txns) flatten to nothing and conflict
		// with nothing; only require self-conflict when a write is present.
		if wantSelf && !selfA {
			t.Fatalf("op with a write does not conflict with itself: %+v", opA)
		}
	})
}

// FuzzDecodeOp guards the op decoder, which every replica runs on payloads
// straight off the wire: it must never panic, and an op that decodes must
// re-encode to exactly its input (one encoding per op).
func FuzzDecodeOp(f *testing.F) {
	for _, op := range fuzzOps() {
		f.Add(EncodeOp(nil, op))
	}
	f.Add([]byte{})
	f.Add([]byte{opCodecVersion, byte(OpTxn), 0x80, 0x80, 0x80, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := DecodeOp(data)
		if err != nil {
			return
		}
		if again := EncodeOp(nil, op); !bytes.Equal(again, data) {
			t.Fatalf("decoded op %+v re-encodes to %x, not its input %x", op, again, data)
		}
	})
}

// FuzzAppSnapshot guards what a restarting engine reads from its log: app
// snapshots and applied records. Neither may panic; a restored engine's own
// snapshot must restore to the same digest, and an applied record that
// decodes must re-encode to its input.
func FuzzAppSnapshot(f *testing.F) {
	for _, unordered := range []bool{false, true} {
		e := NewEngine(EngineConfig{Unordered: unordered})
		for i, op := range fuzzOps() {
			e.Apply(mcast.Delivery{
				Msg: mcast.AppMsg{ID: mcast.MakeMsgID(1, uint32(i)), Dest: mcast.NewGroupSet(0), Payload: EncodeOp(nil, op)},
				GTS: mcast.Timestamp{Time: uint64(10 - i), Group: 0},
				Sub: i,
			})
		}
		f.Add(unordered, e.Snapshot())
	}
	f.Add(false, EncodeApplied(mcast.Delivery{Msg: mcast.AppMsg{Payload: EncodeOp(nil, fuzzOps()[1])}, GTS: mcast.Timestamp{Time: 3, Group: 1}, Sub: 2}))
	f.Fuzz(func(t *testing.T, unordered bool, data []byte) {
		if d, err := DecodeApplied(data); err == nil {
			if again := EncodeApplied(d); !bytes.Equal(again, data) {
				t.Fatalf("applied record %+v re-encodes to %x, not its input %x", d, again, data)
			}
		}
		e := NewEngine(EngineConfig{Unordered: unordered})
		if e.Recover(data, nil, nil) != nil {
			return
		}
		r := NewEngine(EngineConfig{Unordered: unordered})
		if err := r.Recover(e.Snapshot(), nil, nil); err != nil {
			t.Fatalf("an engine's own snapshot does not restore: %v", err)
		}
		if r.Digest() != e.Digest() {
			t.Fatalf("restored digest %#x, want %#x", r.Digest(), e.Digest())
		}
	})
}
