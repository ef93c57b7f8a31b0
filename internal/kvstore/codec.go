package kvstore

import (
	"fmt"

	"wbcast/internal/mcast"
	"wbcast/internal/wire"
)

// OpKind identifies a key-value operation.
type OpKind uint8

// The operation kinds. OpTxn groups sub-operations that must apply
// atomically; its Subs must themselves be single-key operations (no
// nesting).
const (
	OpGet OpKind = 1 + iota
	OpPut
	OpDelete
	OpTxn
)

func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpTxn:
		return "txn"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one key-value operation. Get/Put/Delete use Key (and Val for Put);
// Txn uses Subs. An Op is the unit multicast as one message payload: a Txn
// addressing several shards is delivered to each of them at the same global
// position, which is what makes it atomic.
type Op struct {
	Kind OpKind
	Key  []byte
	Val  []byte
	Subs []Op
}

// opCodecVersion versions the payload encoding so it can evolve without
// breaking mixed-version logs.
const opCodecVersion = 1

// EncodeOp serialises op, appending to dst (which may be nil).
func EncodeOp(dst []byte, op Op) []byte {
	w := wire.Writer(append(dst, opCodecVersion))
	writeOp(&w, op)
	return w
}

func writeOp(w *wire.Writer, op Op) {
	w.Byte(byte(op.Kind))
	switch op.Kind {
	case OpTxn:
		w.Uint(uint64(len(op.Subs)))
		for _, sub := range op.Subs {
			writeOp(w, sub)
		}
	case OpPut:
		w.Bytes(op.Key)
		w.Bytes(op.Val)
	default:
		w.Bytes(op.Key)
	}
}

// DecodeOp parses an operation previously encoded with EncodeOp. The
// result's keys and values alias data.
func DecodeOp(data []byte) (Op, error) {
	r := wire.NewReader(data)
	if v := r.Byte(); v != opCodecVersion {
		r.Fail(fmt.Errorf("unknown op codec version %d", v))
	}
	op := readOp(&r, false)
	if err := r.Done(); err != nil {
		return Op{}, fmt.Errorf("kvstore: op: %w", err)
	}
	return op, nil
}

func readOp(r *wire.Reader, nested bool) Op {
	op := Op{Kind: OpKind(r.Byte())}
	switch op.Kind {
	case OpTxn:
		if nested {
			r.Fail(fmt.Errorf("nested txn"))
		}
		op.Subs = make([]Op, r.Count())
		for i := range op.Subs {
			op.Subs[i] = readOp(r, true)
		}
	case OpPut:
		op.Key, op.Val = r.Bytes(), r.Bytes()
	case OpGet, OpDelete:
		op.Key = r.Bytes()
	default:
		r.Fail(fmt.Errorf("unknown op kind %d", uint8(op.Kind)))
	}
	return op
}

// Flatten returns the single-key operations op performs: itself for
// Get/Put/Delete, or Subs for a Txn. Callers use it to iterate uniformly.
func (op Op) Flatten() []Op {
	if op.Kind == OpTxn {
		return op.Subs
	}
	return []Op{op}
}

// EncodeApplied frames one applied delivery as an opaque WAL app record:
// the delivery's global position (GTS, Sub) followed by its payload. The
// engine re-appends these through the Persister so recovery can rebuild
// shard state without replaying the protocol.
func EncodeApplied(d mcast.Delivery) []byte {
	// 16 bytes hold the stamp and lengths of all but huge values: one
	// allocation per record.
	w := make(wire.Writer, 0, 16+len(d.Msg.Payload))
	w.TS(d.GTS)
	w.Uint(uint64(d.Sub))
	w.Bytes(d.Msg.Payload)
	return w
}

// DecodeApplied parses a record written by EncodeApplied. Only the fields
// recovery needs are rebuilt: the global position and the payload, which
// aliases data.
func DecodeApplied(data []byte) (mcast.Delivery, error) {
	r := wire.NewReader(data)
	d := mcast.Delivery{GTS: r.TS(), Sub: int(r.Uint())}
	d.Msg.Payload = r.Bytes()
	if err := r.Done(); err != nil {
		return mcast.Delivery{}, fmt.Errorf("kvstore: applied record: %w", err)
	}
	return d, nil
}
