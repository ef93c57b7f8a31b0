package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// Encode serialises a message, appending to dst (which may be nil).
func Encode(dst []byte, m msgs.Message) ([]byte, error) {
	e := Writer(append(dst, byte(m.Kind())))
	switch m := m.(type) {
	case msgs.Multicast:
		e.appMsg(m.M)
	case msgs.ClientReply:
		e.Uint(uint64(m.ID))
		e.i32(int32(m.Group))
		e.Ballot(m.Bal)
	case msgs.Propose:
		e.Uint(uint64(m.ID))
		e.i32(int32(m.Group))
		e.TS(m.LTS)
	case msgs.Confirm:
		e.Uint(uint64(m.ID))
		e.i32(int32(m.Group))
		e.TS(m.LTS)
	case msgs.Accept:
		e.appMsg(m.M)
		e.i32(int32(m.Group))
		e.Ballot(m.Bal)
		e.TS(m.LTS)
	case msgs.AcceptAck:
		e.Uint(uint64(m.ID))
		e.i32(int32(m.Group))
		e.Uint(uint64(len(m.Bals)))
		for _, gb := range m.Bals {
			e.i32(int32(gb.Group))
			e.Ballot(gb.Bal)
		}
	case msgs.Deliver:
		e.Uint(uint64(m.ID))
		e.Ballot(m.Bal)
		e.TS(m.LTS)
		e.TS(m.GTS)
		e.TS(m.Prev)
		e.Uint(m.Seq)
	case msgs.NewLeader:
		e.Ballot(m.Bal)
	case msgs.NewLeaderAck:
		e.Ballot(m.Bal)
		e.Ballot(m.CBal)
		e.Uint(m.Clock)
		e.records(m.State)
	case msgs.NewState:
		e.Ballot(m.Bal)
		e.Uint(m.Clock)
		e.records(m.State)
	case msgs.NewStateAck:
		e.Ballot(m.Bal)
	case msgs.Heartbeat:
		e.i32(int32(m.Group))
		e.Ballot(m.Bal)
	case msgs.HeartbeatAck:
		e.i32(int32(m.Group))
		e.Ballot(m.Bal)
		e.TS(m.Delivered)
		e.Uint(m.Executed)
		e.Uint(m.Seq)
	case msgs.GCMark:
		e.i32(int32(m.Group))
		e.TS(m.Watermark)
	case msgs.Prune:
		e.i32(int32(m.Group))
		e.groupTS(m.Marks)
	case msgs.P1a:
		e.i32(int32(m.Group))
		e.Ballot(m.Bal)
	case msgs.P1b:
		e.i32(int32(m.Group))
		e.Ballot(m.Bal)
		e.Uint(m.Executed)
		e.Uint(uint64(len(m.Entries)))
		for _, ent := range m.Entries {
			e.Uint(ent.Slot)
			e.Ballot(ent.VBal)
			e.Command(ent.Cmd)
		}
	case msgs.P2a:
		e.i32(int32(m.Group))
		e.Ballot(m.Bal)
		e.Uint(m.Slot)
		e.Command(m.Cmd)
	case msgs.P2b:
		e.i32(int32(m.Group))
		e.Ballot(m.Bal)
		e.Uint(m.Slot)
	case msgs.Learn:
		e.i32(int32(m.Group))
		e.Uint(m.Slot)
		e.Command(m.Cmd)
	case msgs.Batch:
		e.Uint(uint64(len(m.Entries)))
		for _, ent := range m.Entries {
			e.Uint(uint64(ent.ID))
			e.Bytes(ent.Payload)
		}
	case msgs.ClientReplies:
		e.i32(int32(m.Group))
		e.Ballot(m.Bal)
		e.Uint(uint64(len(m.IDs)))
		for _, id := range m.IDs {
			e.Uint(uint64(id))
		}
	default:
		return nil, fmt.Errorf("wire: cannot encode message kind %v", m.Kind())
	}
	return e, nil
}

// DecodeBorrowed parses one message from data, which must contain exactly
// one encoded message. It reads in place: the []byte fields of the returned
// message (application payloads, batch entries) alias data.
//
// The message is only as stable as data: a caller must not write data again
// while any part of the message may be in use. The TCP runtime reads every
// frame into a buffer of its own and never reuses it, so what it decodes is
// safe to keep for as long as anybody likes; the garbage collector frees the
// frame with the last part kept. Non-byte slices — destination sets, ballot
// vectors, timestamp vectors, record lists — are freshly allocated and never
// alias data.
func DecodeBorrowed(data []byte) (msgs.Message, error) {
	r := NewReader(data)
	kind := msgs.Kind(r.Byte())
	m := r.message(kind)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", kind, err)
	}
	return m, nil
}

// maxCount caps a message's collections against corrupt or hostile input;
// storage formats are bounded by their bytes alone (Reader.Count).
const maxCount = 1 << 20

// message decodes one message body of the given kind from the cursor;
// DecodeBorrowed checks for trailing bytes.
func (r *Reader) message(kind msgs.Kind) msgs.Message {
	var m msgs.Message
	switch kind {
	case msgs.KindMulticast:
		m = msgs.Multicast{M: r.appMsg()}
	case msgs.KindClientReply:
		m = msgs.ClientReply{ID: mcast.MsgID(r.Uint()), Group: mcast.GroupID(r.i32()), Bal: r.Ballot()}
	case msgs.KindPropose:
		m = msgs.Propose{ID: mcast.MsgID(r.Uint()), Group: mcast.GroupID(r.i32()), LTS: r.TS()}
	case msgs.KindConfirm:
		m = msgs.Confirm{ID: mcast.MsgID(r.Uint()), Group: mcast.GroupID(r.i32()), LTS: r.TS()}
	case msgs.KindAccept:
		m = msgs.Accept{M: r.appMsg(), Group: mcast.GroupID(r.i32()), Bal: r.Ballot(), LTS: r.TS()}
	case msgs.KindAcceptAck:
		a := msgs.AcceptAck{ID: mcast.MsgID(r.Uint()), Group: mcast.GroupID(r.i32())}
		a.Bals = make([]msgs.GroupBallot, r.count(maxCount))
		for i := range a.Bals {
			a.Bals[i] = msgs.GroupBallot{Group: mcast.GroupID(r.i32()), Bal: r.Ballot()}
		}
		m = a
	case msgs.KindDeliver:
		m = msgs.Deliver{ID: mcast.MsgID(r.Uint()), Bal: r.Ballot(), LTS: r.TS(), GTS: r.TS(), Prev: r.TS(), Seq: r.Uint()}
	case msgs.KindNewLeader:
		m = msgs.NewLeader{Bal: r.Ballot()}
	case msgs.KindNewLeaderAck:
		m = msgs.NewLeaderAck{Bal: r.Ballot(), CBal: r.Ballot(), Clock: r.Uint(), State: r.records()}
	case msgs.KindNewState:
		m = msgs.NewState{Bal: r.Ballot(), Clock: r.Uint(), State: r.records()}
	case msgs.KindNewStateAck:
		m = msgs.NewStateAck{Bal: r.Ballot()}
	case msgs.KindHeartbeat:
		m = msgs.Heartbeat{Group: mcast.GroupID(r.i32()), Bal: r.Ballot()}
	case msgs.KindHeartbeatAck:
		m = msgs.HeartbeatAck{Group: mcast.GroupID(r.i32()), Bal: r.Ballot(), Delivered: r.TS(), Executed: r.Uint(), Seq: r.Uint()}
	case msgs.KindGCMark:
		m = msgs.GCMark{Group: mcast.GroupID(r.i32()), Watermark: r.TS()}
	case msgs.KindPrune:
		m = msgs.Prune{Group: mcast.GroupID(r.i32()), Marks: r.groupTS()}
	case msgs.KindP1a:
		m = msgs.P1a{Group: mcast.GroupID(r.i32()), Bal: r.Ballot()}
	case msgs.KindP1b:
		p := msgs.P1b{Group: mcast.GroupID(r.i32()), Bal: r.Ballot(), Executed: r.Uint()}
		p.Entries = make([]msgs.P1bEntry, r.count(maxCount))
		for i := range p.Entries {
			p.Entries[i] = msgs.P1bEntry{Slot: r.Uint(), VBal: r.Ballot(), Cmd: r.Command()}
		}
		m = p
	case msgs.KindP2a:
		m = msgs.P2a{Group: mcast.GroupID(r.i32()), Bal: r.Ballot(), Slot: r.Uint(), Cmd: r.Command()}
	case msgs.KindP2b:
		m = msgs.P2b{Group: mcast.GroupID(r.i32()), Bal: r.Ballot(), Slot: r.Uint()}
	case msgs.KindLearn:
		m = msgs.Learn{Group: mcast.GroupID(r.i32()), Slot: r.Uint(), Cmd: r.Command()}
	case msgs.KindBatch:
		b := msgs.Batch{Entries: make([]msgs.BatchEntry, r.count(maxCount))}
		for i := range b.Entries {
			b.Entries[i] = msgs.BatchEntry{ID: mcast.MsgID(r.Uint()), Payload: r.Bytes()}
		}
		m = b
	case msgs.KindClientReplies:
		cr := msgs.ClientReplies{Group: mcast.GroupID(r.i32()), Bal: r.Ballot()}
		cr.IDs = make([]mcast.MsgID, r.count(maxCount))
		for i := range cr.IDs {
			cr.IDs[i] = mcast.MsgID(r.Uint())
		}
		m = cr
	default:
		r.Fail(fmt.Errorf("unknown message kind %d", kind))
	}
	return m
}

// --------------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------------

// Writer appends the format's fields to a byte slice: messages (Encode),
// WAL entries and the kv store's ops, applied records and snapshots all
// write through it. Convert a slice to start one (Writer(dst)); a Writer
// is its bytes so far.
type Writer []byte

// Uint appends v as a uvarint.
func (w *Writer) Uint(v uint64) { *w = binary.AppendUvarint(*w, v) }

// Byte appends b as is.
func (w *Writer) Byte(b byte) { *w = append(*w, b) }

// Bytes appends b behind its length.
func (w *Writer) Bytes(b []byte) {
	w.Uint(uint64(len(b)))
	*w = append(*w, b...)
}

// TS appends a timestamp.
func (w *Writer) TS(ts mcast.Timestamp) {
	w.Uint(ts.Time)
	w.i32(int32(ts.Group))
}

// Ballot appends a ballot.
func (w *Writer) Ballot(b mcast.Ballot) {
	w.Uint(b.N)
	w.i32(int32(b.Proc))
}

// Record appends one per-message record (Fig. 3: message, phase, local and
// global timestamp), the layout NEW_STATE carries and the WAL logs.
func (w *Writer) Record(r msgs.MsgRecord) {
	w.appMsg(r.M)
	w.Byte(byte(r.Phase))
	w.TS(r.LTS)
	w.TS(r.GTS)
}

// Command appends a replicated Paxos command.
func (w *Writer) Command(c msgs.Command) {
	w.Byte(byte(c.Op))
	switch c.Op {
	case msgs.CmdAssign:
		w.appMsg(c.M)
		w.TS(c.LTS)
	case msgs.CmdCommit:
		w.Uint(uint64(c.ID))
		w.groupTS(c.LTSs)
	}
}

func (w *Writer) i32(v int32) { *w = binary.AppendVarint(*w, int64(v)) }

func (w *Writer) appMsg(m mcast.AppMsg) {
	w.Uint(uint64(m.ID))
	w.Uint(uint64(len(m.Dest)))
	for _, g := range m.Dest {
		w.i32(int32(g))
	}
	w.Bytes(m.Payload)
}

func (w *Writer) groupTS(v []msgs.GroupTS) {
	w.Uint(uint64(len(v)))
	for _, gt := range v {
		w.i32(int32(gt.Group))
		w.TS(gt.TS)
	}
}

func (w *Writer) records(recs []msgs.MsgRecord) {
	w.Uint(uint64(len(recs)))
	for _, r := range recs {
		w.Record(r)
	}
}

// --------------------------------------------------------------------------
// Reader
// --------------------------------------------------------------------------

// Reader is a cursor over bytes a Writer wrote. Its error is sticky: the
// first malformed field fails the Reader, and every later read returns a
// zero value, so a decoder reads straight through and checks once, with
// Done. It reads in place: the byte strings it returns alias the input,
// and are valid only while the input is; other slices are always fresh.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{buf: data} }

// Fail records err, unless the Reader has failed already, and drops the
// bytes left.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Done returns the Reader's error, or one for bytes left unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Uint reads a uvarint. Only the shortest encoding of a value is
// accepted, so that whatever decodes re-encodes to its input.
func (r *Reader) Uint() uint64 {
	// Most counts, lengths, groups and processes fit one byte.
	if len(r.buf) > 0 && r.buf[0] < 0x80 {
		v := r.buf[0]
		r.buf = r.buf[1:]
		return uint64(v)
	}
	// A failed Reader has no bytes left, so it fails here again, harmlessly.
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || (n > 1 && r.buf[n-1] == 0) {
		r.Fail(fmt.Errorf("malformed uvarint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Count reads a collection's length, which may not exceed the bytes left:
// every element takes one byte at least, so what a decoder allocates for
// the collection is bounded by its input.
func (r *Reader) Count() int { return r.count(math.MaxUint64) }

func (r *Reader) count(limit uint64) int {
	n := r.Uint()
	switch {
	case n > limit:
		r.Fail(fmt.Errorf("collection of %d elements exceeds limit", n))
	case n > uint64(len(r.buf)):
		r.Fail(fmt.Errorf("collection of %d elements exceeds remaining %d bytes", n, len(r.buf)))
	default:
		return int(n)
	}
	return 0
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.Fail(fmt.Errorf("truncated byte"))
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bytes reads a length-prefixed byte string, which aliases the input.
func (r *Reader) Bytes() []byte {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.Fail(fmt.Errorf("byte string of %d exceeds remaining %d", n, len(r.buf)))
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

// TS reads a timestamp.
func (r *Reader) TS() mcast.Timestamp {
	return mcast.Timestamp{Time: r.Uint(), Group: mcast.GroupID(r.i32())}
}

// Ballot reads a ballot.
func (r *Reader) Ballot() mcast.Ballot {
	return mcast.Ballot{N: r.Uint(), Proc: mcast.ProcessID(r.i32())}
}

// Record reads what Writer.Record wrote.
func (r *Reader) Record() msgs.MsgRecord {
	return msgs.MsgRecord{M: r.appMsg(), Phase: msgs.Phase(r.Byte()), LTS: r.TS(), GTS: r.TS()}
}

// Command reads what Writer.Command wrote.
func (r *Reader) Command() msgs.Command {
	c := msgs.Command{Op: msgs.CmdOp(r.Byte())}
	switch c.Op {
	case msgs.CmdNoop:
	case msgs.CmdAssign:
		c.M = r.appMsg()
		c.LTS = r.TS()
	case msgs.CmdCommit:
		c.ID = mcast.MsgID(r.Uint())
		c.LTSs = r.groupTS()
	default:
		r.Fail(fmt.Errorf("unknown command op %d", c.Op))
	}
	return c
}

// i32 reads what binary.AppendVarint wrote for an int32: a zigzag uvarint.
func (r *Reader) i32() int32 {
	u := r.Uint()
	v := int64(u>>1) ^ -int64(u&1)
	if v != int64(int32(v)) {
		r.Fail(fmt.Errorf("varint %d overflows int32", v))
		return 0
	}
	return int32(v)
}

func (r *Reader) appMsg() mcast.AppMsg {
	m := mcast.AppMsg{ID: mcast.MsgID(r.Uint())}
	m.Dest = make(mcast.GroupSet, r.count(maxCount))
	for i := range m.Dest {
		m.Dest[i] = mcast.GroupID(r.i32())
	}
	m.Payload = r.Bytes()
	return m
}

func (r *Reader) groupTS() []msgs.GroupTS {
	out := make([]msgs.GroupTS, r.count(maxCount))
	for i := range out {
		out[i] = msgs.GroupTS{Group: mcast.GroupID(r.i32()), TS: r.TS()}
	}
	return out
}

func (r *Reader) records() []msgs.MsgRecord {
	out := make([]msgs.MsgRecord, r.count(maxCount))
	for i := range out {
		out[i] = r.Record()
	}
	return out
}
