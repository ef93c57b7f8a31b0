package wire

import (
	"encoding/binary"
	"fmt"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// Encode serialises a message, appending to dst (which may be nil).
func Encode(dst []byte, m msgs.Message) ([]byte, error) {
	e := encoder{buf: append(dst, byte(m.Kind()))}
	switch m := m.(type) {
	case msgs.Multicast:
		e.appMsg(m.M)
	case msgs.ClientReply:
		e.u64(uint64(m.ID))
		e.i32(int32(m.Group))
		e.ballot(m.Bal)
	case msgs.Propose:
		e.u64(uint64(m.ID))
		e.i32(int32(m.Group))
		e.ts(m.LTS)
	case msgs.Confirm:
		e.u64(uint64(m.ID))
		e.i32(int32(m.Group))
		e.ts(m.LTS)
	case msgs.Accept:
		e.appMsg(m.M)
		e.i32(int32(m.Group))
		e.ballot(m.Bal)
		e.ts(m.LTS)
	case msgs.AcceptAck:
		e.u64(uint64(m.ID))
		e.i32(int32(m.Group))
		e.u64(uint64(len(m.Bals)))
		for _, gb := range m.Bals {
			e.i32(int32(gb.Group))
			e.ballot(gb.Bal)
		}
	case msgs.Deliver:
		e.u64(uint64(m.ID))
		e.ballot(m.Bal)
		e.ts(m.LTS)
		e.ts(m.GTS)
		e.ts(m.Prev)
		e.u64(m.Seq)
	case msgs.NewLeader:
		e.ballot(m.Bal)
	case msgs.NewLeaderAck:
		e.ballot(m.Bal)
		e.ballot(m.CBal)
		e.u64(m.Clock)
		e.records(m.State)
	case msgs.NewState:
		e.ballot(m.Bal)
		e.u64(m.Clock)
		e.records(m.State)
	case msgs.NewStateAck:
		e.ballot(m.Bal)
	case msgs.Heartbeat:
		e.i32(int32(m.Group))
		e.ballot(m.Bal)
	case msgs.HeartbeatAck:
		e.i32(int32(m.Group))
		e.ballot(m.Bal)
		e.ts(m.Delivered)
		e.u64(m.Executed)
		e.u64(m.Seq)
	case msgs.GCMark:
		e.i32(int32(m.Group))
		e.ts(m.Watermark)
	case msgs.Prune:
		e.i32(int32(m.Group))
		e.groupTS(m.Marks)
	case msgs.P1a:
		e.i32(int32(m.Group))
		e.ballot(m.Bal)
	case msgs.P1b:
		e.i32(int32(m.Group))
		e.ballot(m.Bal)
		e.u64(m.Executed)
		e.u64(uint64(len(m.Entries)))
		for _, ent := range m.Entries {
			e.u64(ent.Slot)
			e.ballot(ent.VBal)
			e.command(ent.Cmd)
		}
	case msgs.P2a:
		e.i32(int32(m.Group))
		e.ballot(m.Bal)
		e.u64(m.Slot)
		e.command(m.Cmd)
	case msgs.P2b:
		e.i32(int32(m.Group))
		e.ballot(m.Bal)
		e.u64(m.Slot)
	case msgs.Learn:
		e.i32(int32(m.Group))
		e.u64(m.Slot)
		e.command(m.Cmd)
	case msgs.Batch:
		e.u64(uint64(len(m.Entries)))
		for _, ent := range m.Entries {
			e.u64(uint64(ent.ID))
			e.bytes(ent.Payload)
		}
	case msgs.AckBatch:
		e.u64(uint64(len(m.Entries)))
		for _, ent := range m.Entries {
			if ent == nil || !ent.Kind().IsAck() {
				return nil, fmt.Errorf("wire: ack batch entry is not ack-class")
			}
			// Entries nest a complete [kind][body] encoding, so the
			// same top-level codec handles them.
			buf, err := Encode(e.buf, ent)
			if err != nil {
				return nil, err
			}
			e.buf = buf
		}
	case msgs.ClientReplies:
		e.i32(int32(m.Group))
		e.ballot(m.Bal)
		e.u64(uint64(len(m.IDs)))
		for _, id := range m.IDs {
			e.u64(uint64(id))
		}
	default:
		return nil, fmt.Errorf("wire: cannot encode message kind %v", m.Kind())
	}
	return e.buf, nil
}

// Decode parses one message from data, which must contain exactly one
// encoded message. The result is fully independent of data: every byte
// string is copied out, so the caller may reuse or discard data freely.
func Decode(data []byte) (msgs.Message, error) {
	return decode(data, false)
}

// DecodeBorrowed parses one message from data like Decode, but without
// copying byte strings: the []byte fields of the returned message
// (application payloads, batch entries) alias data directly. It is the
// zero-copy dispatch path for runtimes that own the frame buffer and
// control its lifetime.
//
// Ownership contract: the returned message is valid only while data is.
// A caller that recycles data (e.g. returns a pooled read frame) must do so
// only after the message has been fully processed, and consumers that
// retain any part of the message must deep-copy it first (see the frame-
// ownership notes on node.Handler). Non-byte slices — destination sets,
// ballot vectors, timestamp vectors, record lists — are freshly allocated
// either way and never alias data.
func DecodeBorrowed(data []byte) (msgs.Message, error) {
	return decode(data, true)
}

func decode(data []byte, borrow bool) (msgs.Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	d := decoder{buf: data[1:], borrow: borrow}
	kind := msgs.Kind(data[0])
	m := d.message(kind)
	if d.err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", kind, d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", len(d.buf), kind)
	}
	return m, nil
}

// message decodes one message body of the given kind from the cursor,
// leaving any following bytes in place (the top-level decode checks for
// trailing bytes; AckBatch entries decode in sequence).
func (d *decoder) message(kind msgs.Kind) msgs.Message {
	var m msgs.Message
	switch kind {
	case msgs.KindMulticast:
		m = msgs.Multicast{M: d.appMsg()}
	case msgs.KindClientReply:
		m = msgs.ClientReply{ID: mcast.MsgID(d.u64()), Group: mcast.GroupID(d.i32()), Bal: d.ballot()}
	case msgs.KindPropose:
		m = msgs.Propose{ID: mcast.MsgID(d.u64()), Group: mcast.GroupID(d.i32()), LTS: d.ts()}
	case msgs.KindConfirm:
		m = msgs.Confirm{ID: mcast.MsgID(d.u64()), Group: mcast.GroupID(d.i32()), LTS: d.ts()}
	case msgs.KindAccept:
		m = msgs.Accept{M: d.appMsg(), Group: mcast.GroupID(d.i32()), Bal: d.ballot(), LTS: d.ts()}
	case msgs.KindAcceptAck:
		a := msgs.AcceptAck{ID: mcast.MsgID(d.u64()), Group: mcast.GroupID(d.i32())}
		n := d.u64()
		if d.validCount(n) {
			a.Bals = make([]msgs.GroupBallot, 0, n)
			for i := uint64(0); i < n; i++ {
				a.Bals = append(a.Bals, msgs.GroupBallot{Group: mcast.GroupID(d.i32()), Bal: d.ballot()})
			}
		}
		m = a
	case msgs.KindDeliver:
		m = msgs.Deliver{ID: mcast.MsgID(d.u64()), Bal: d.ballot(), LTS: d.ts(), GTS: d.ts(), Prev: d.ts(), Seq: d.u64()}
	case msgs.KindNewLeader:
		m = msgs.NewLeader{Bal: d.ballot()}
	case msgs.KindNewLeaderAck:
		m = msgs.NewLeaderAck{Bal: d.ballot(), CBal: d.ballot(), Clock: d.u64(), State: d.records()}
	case msgs.KindNewState:
		m = msgs.NewState{Bal: d.ballot(), Clock: d.u64(), State: d.records()}
	case msgs.KindNewStateAck:
		m = msgs.NewStateAck{Bal: d.ballot()}
	case msgs.KindHeartbeat:
		m = msgs.Heartbeat{Group: mcast.GroupID(d.i32()), Bal: d.ballot()}
	case msgs.KindHeartbeatAck:
		m = msgs.HeartbeatAck{Group: mcast.GroupID(d.i32()), Bal: d.ballot(), Delivered: d.ts(), Executed: d.u64(), Seq: d.u64()}
	case msgs.KindGCMark:
		m = msgs.GCMark{Group: mcast.GroupID(d.i32()), Watermark: d.ts()}
	case msgs.KindPrune:
		m = msgs.Prune{Group: mcast.GroupID(d.i32()), Marks: d.groupTS()}
	case msgs.KindP1a:
		m = msgs.P1a{Group: mcast.GroupID(d.i32()), Bal: d.ballot()}
	case msgs.KindP1b:
		p := msgs.P1b{Group: mcast.GroupID(d.i32()), Bal: d.ballot(), Executed: d.u64()}
		n := d.u64()
		if d.validCount(n) {
			p.Entries = make([]msgs.P1bEntry, 0, n)
			for i := uint64(0); i < n; i++ {
				p.Entries = append(p.Entries, msgs.P1bEntry{Slot: d.u64(), VBal: d.ballot(), Cmd: d.command()})
			}
		}
		m = p
	case msgs.KindP2a:
		m = msgs.P2a{Group: mcast.GroupID(d.i32()), Bal: d.ballot(), Slot: d.u64(), Cmd: d.command()}
	case msgs.KindP2b:
		m = msgs.P2b{Group: mcast.GroupID(d.i32()), Bal: d.ballot(), Slot: d.u64()}
	case msgs.KindLearn:
		m = msgs.Learn{Group: mcast.GroupID(d.i32()), Slot: d.u64(), Cmd: d.command()}
	case msgs.KindBatch:
		b := msgs.Batch{}
		n := d.u64()
		if d.validCount(n) {
			b.Entries = make([]msgs.BatchEntry, 0, n)
			for i := uint64(0); i < n; i++ {
				b.Entries = append(b.Entries, msgs.BatchEntry{ID: mcast.MsgID(d.u64()), Payload: d.bytes()})
			}
		}
		m = b
	case msgs.KindAckBatch:
		ab := msgs.AckBatch{}
		n := d.u64()
		if d.validCount(n) {
			ab.Entries = make([]msgs.Message, 0, n)
			for i := uint64(0); i < n; i++ {
				if len(d.buf) == 0 {
					d.fail(fmt.Errorf("truncated ack batch entry"))
					break
				}
				k := msgs.Kind(d.buf[0])
				if !k.IsAck() {
					// Also rules out nested AckBatch.
					d.fail(fmt.Errorf("ack batch entry of non-ack kind %v", k))
					break
				}
				d.buf = d.buf[1:]
				sub := d.message(k)
				if d.err != nil {
					break
				}
				ab.Entries = append(ab.Entries, sub)
			}
		}
		m = ab
	case msgs.KindClientReplies:
		r := msgs.ClientReplies{Group: mcast.GroupID(d.i32()), Bal: d.ballot()}
		n := d.u64()
		if d.validCount(n) {
			r.IDs = make([]mcast.MsgID, 0, n)
			for i := uint64(0); i < n; i++ {
				r.IDs = append(r.IDs, mcast.MsgID(d.u64()))
			}
		}
		m = r
	default:
		d.fail(fmt.Errorf("unknown message kind %d", kind))
	}
	return m
}

// --------------------------------------------------------------------------
// encoder
// --------------------------------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i32(v int32)  { e.buf = binary.AppendVarint(e.buf, int64(v)) }
func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) ts(ts mcast.Timestamp) {
	e.u64(ts.Time)
	e.i32(int32(ts.Group))
}

func (e *encoder) ballot(b mcast.Ballot) {
	e.u64(b.N)
	e.i32(int32(b.Proc))
}

func (e *encoder) appMsg(m mcast.AppMsg) {
	e.u64(uint64(m.ID))
	e.u64(uint64(len(m.Dest)))
	for _, g := range m.Dest {
		e.i32(int32(g))
	}
	e.bytes(m.Payload)
}

func (e *encoder) groupTS(v []msgs.GroupTS) {
	e.u64(uint64(len(v)))
	for _, gt := range v {
		e.i32(int32(gt.Group))
		e.ts(gt.TS)
	}
}

func (e *encoder) command(c msgs.Command) {
	e.buf = append(e.buf, byte(c.Op))
	switch c.Op {
	case msgs.CmdAssign:
		e.appMsg(c.M)
		e.ts(c.LTS)
	case msgs.CmdCommit:
		e.u64(uint64(c.ID))
		e.groupTS(c.LTSs)
	}
}

func (e *encoder) records(recs []msgs.MsgRecord) {
	e.u64(uint64(len(recs)))
	for _, r := range recs {
		e.appMsg(r.M)
		e.buf = append(e.buf, byte(r.Phase))
		e.ts(r.LTS)
		e.ts(r.GTS)
	}
}

// --------------------------------------------------------------------------
// decoder
// --------------------------------------------------------------------------

type decoder struct {
	buf []byte
	err error
	// borrow makes bytes() alias the input instead of copying
	// (DecodeBorrowed).
	borrow bool
}

// maxCount bounds decoded collection sizes against corrupt or hostile input.
const maxCount = 1 << 20

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) validCount(n uint64) bool {
	if n > maxCount {
		d.fail(fmt.Errorf("collection of %d elements exceeds limit", n))
		return false
	}
	return d.err == nil
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(fmt.Errorf("truncated uvarint"))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) i32() int32 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail(fmt.Errorf("truncated varint"))
		return 0
	}
	d.buf = d.buf[n:]
	return int32(v)
}

func (d *decoder) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail(fmt.Errorf("byte string of %d exceeds remaining %d", n, len(d.buf)))
		return nil
	}
	var out []byte
	if d.borrow {
		out = d.buf[:n:n]
	} else {
		out = make([]byte, n)
		copy(out, d.buf[:n])
	}
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) ts() mcast.Timestamp {
	return mcast.Timestamp{Time: d.u64(), Group: mcast.GroupID(d.i32())}
}

func (d *decoder) ballot() mcast.Ballot {
	return mcast.Ballot{N: d.u64(), Proc: mcast.ProcessID(d.i32())}
}

func (d *decoder) appMsg() mcast.AppMsg {
	m := mcast.AppMsg{ID: mcast.MsgID(d.u64())}
	n := d.u64()
	if d.validCount(n) {
		dest := make(mcast.GroupSet, 0, n)
		for i := uint64(0); i < n; i++ {
			dest = append(dest, mcast.GroupID(d.i32()))
		}
		m.Dest = dest
	}
	m.Payload = d.bytes()
	return m
}

func (d *decoder) groupTS() []msgs.GroupTS {
	n := d.u64()
	if !d.validCount(n) {
		return nil
	}
	out := make([]msgs.GroupTS, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, msgs.GroupTS{Group: mcast.GroupID(d.i32()), TS: d.ts()})
	}
	return out
}

func (d *decoder) command() msgs.Command {
	if d.err != nil {
		return msgs.Command{}
	}
	if len(d.buf) == 0 {
		d.fail(fmt.Errorf("truncated command"))
		return msgs.Command{}
	}
	op := msgs.CmdOp(d.buf[0])
	d.buf = d.buf[1:]
	c := msgs.Command{Op: op}
	switch op {
	case msgs.CmdNoop:
	case msgs.CmdAssign:
		c.M = d.appMsg()
		c.LTS = d.ts()
	case msgs.CmdCommit:
		c.ID = mcast.MsgID(d.u64())
		c.LTSs = d.groupTS()
	default:
		d.fail(fmt.Errorf("unknown command op %d", op))
	}
	return c
}

func (d *decoder) records() []msgs.MsgRecord {
	n := d.u64()
	if !d.validCount(n) {
		return nil
	}
	out := make([]msgs.MsgRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		r := msgs.MsgRecord{M: d.appMsg()}
		if d.err != nil {
			return nil
		}
		if len(d.buf) == 0 {
			d.fail(fmt.Errorf("truncated record phase"))
			return nil
		}
		r.Phase = msgs.Phase(d.buf[0])
		d.buf = d.buf[1:]
		r.LTS = d.ts()
		r.GTS = d.ts()
		out = append(out, r)
	}
	return out
}
