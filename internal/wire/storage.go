package wire

import (
	"fmt"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// This file exports the wire format's primitive append/consume pairs for
// storage encoders (internal/wal). The WAL persists the same AppMsg,
// Command and timestamp shapes that travel on the network; sharing the
// codec here keeps one serialisation of each shape in the codebase.
//
// Append* functions append to dst (which may be nil) and return the
// extended slice. Consume* functions parse one value from the front of buf
// and return the value, the remaining bytes, and any error. Consumed byte
// strings are always copied out (storage decoders own their results).

// AppendUint appends v as a uvarint.
func AppendUint(dst []byte, v uint64) []byte {
	e := encoder{buf: dst}
	e.u64(v)
	return e.buf
}

// ConsumeUint parses a uvarint.
func ConsumeUint(buf []byte) (uint64, []byte, error) {
	d := decoder{buf: buf}
	v := d.u64()
	return v, d.buf, d.err
}

// AppendTS appends a timestamp.
func AppendTS(dst []byte, ts mcast.Timestamp) []byte {
	e := encoder{buf: dst}
	e.ts(ts)
	return e.buf
}

// ConsumeTS parses a timestamp.
func ConsumeTS(buf []byte) (mcast.Timestamp, []byte, error) {
	d := decoder{buf: buf}
	ts := d.ts()
	return ts, d.buf, d.err
}

// AppendBallot appends a ballot.
func AppendBallot(dst []byte, b mcast.Ballot) []byte {
	e := encoder{buf: dst}
	e.ballot(b)
	return e.buf
}

// ConsumeBallot parses a ballot.
func ConsumeBallot(buf []byte) (mcast.Ballot, []byte, error) {
	d := decoder{buf: buf}
	b := d.ballot()
	return b, d.buf, d.err
}

// AppendCommand appends a replicated command in wire form.
func AppendCommand(dst []byte, c msgs.Command) []byte {
	e := encoder{buf: dst}
	e.command(c)
	return e.buf
}

// ConsumeCommand parses a replicated command, copying any payload.
func ConsumeCommand(buf []byte) (msgs.Command, []byte, error) {
	d := decoder{buf: buf}
	c := d.command()
	return c, d.buf, d.err
}

// AppendRecord appends one MsgRecord (message, phase, local and global
// timestamps) in the layout the NEW_STATE wire messages use.
func AppendRecord(dst []byte, r msgs.MsgRecord) []byte {
	e := encoder{buf: dst}
	e.appMsg(r.M)
	e.buf = append(e.buf, byte(r.Phase))
	e.ts(r.LTS)
	e.ts(r.GTS)
	return e.buf
}

// ConsumeRecord parses one MsgRecord, copying the payload.
func ConsumeRecord(buf []byte) (msgs.MsgRecord, []byte, error) {
	d := decoder{buf: buf}
	r := msgs.MsgRecord{M: d.appMsg()}
	if d.err == nil && len(d.buf) == 0 {
		d.fail(fmt.Errorf("truncated record phase"))
	}
	if d.err == nil {
		r.Phase = msgs.Phase(d.buf[0])
		d.buf = d.buf[1:]
	}
	r.LTS = d.ts()
	r.GTS = d.ts()
	return r, d.buf, d.err
}
