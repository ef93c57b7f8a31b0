package batch

import (
	"fmt"

	"wbcast/internal/client"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/wire"
)

// Options is empty: a client batches what one drain of its mailbox holds,
// with nothing to tune.
type Options struct{}

// NewHandler builds the client handler for a runtime: client.New(cfg). The
// options are ignored.
func NewHandler(cfg client.Config, _ *Options) node.Handler { return client.New(cfg) }

// DecodePayload parses the payload of a batch envelope: the wire form of a
// msgs.Batch. The entries' payloads alias payload.
func DecodePayload(payload []byte) ([]msgs.BatchEntry, error) {
	m, err := wire.DecodeBorrowed(payload)
	if err != nil {
		return nil, err
	}
	b, ok := m.(msgs.Batch)
	if !ok {
		return nil, fmt.Errorf("batch: payload decodes to %v, not BATCH", m.Kind())
	}
	return b.Entries, nil
}

// ExpandInto appends d to fx, unpacking it first if it is a batch
// delivery: each payload becomes its own delivery carrying the original
// submission's message ID, the batch's destination set and global
// timestamp, and its position in the batch as the sub-sequence number.
// Protocol delivery paths call this instead of fx.Deliver, which keeps
// batched and unbatched runs — and all protocol baselines —
// observationally identical at the application boundary.
func ExpandInto(fx *node.Effects, d mcast.Delivery) {
	if !mcast.IsBatchID(d.Msg.ID) {
		fx.Deliver(d)
		return
	}
	entries, err := DecodePayload(d.Msg.Payload)
	if err != nil {
		// A batch envelope this replica committed but cannot decode is a
		// programming error on the encode side; surface the raw delivery
		// rather than silently dropping payloads.
		fx.Deliver(d)
		return
	}
	for i, e := range entries {
		fx.Deliver(mcast.Delivery{
			Msg: mcast.AppMsg{ID: e.ID, Dest: d.Msg.Dest, Payload: e.Payload},
			GTS: d.GTS,
			Sub: i,
		})
	}
}

// Expand returns the per-payload deliveries of d (see ExpandInto), or d
// itself when it is not a batch. Runtimes that post-process delivery
// callbacks (e.g. tcpnet) use it.
func Expand(d mcast.Delivery) []mcast.Delivery {
	var fx node.Effects
	ExpandInto(&fx, d)
	return fx.Deliveries
}

// Conflicts lifts a payload-level conflict relation to whole protocol
// messages: batch envelopes are expanded and two messages conflict iff any
// pair of their payloads does. An envelope that fails to decode
// conservatively conflicts with everything (a safe over-approximation —
// see mcast.ConflictRelation). A nil rel yields nil (all-conflict).
func Conflicts(rel mcast.ConflictRelation) mcast.MsgConflicts {
	if rel == nil {
		return nil
	}
	payloadsOf := func(m mcast.AppMsg) ([][]byte, bool) {
		if !mcast.IsBatchID(m.ID) {
			return [][]byte{m.Payload}, true
		}
		entries, err := DecodePayload(m.Payload)
		if err != nil {
			return nil, false
		}
		ps := make([][]byte, len(entries))
		for i, e := range entries {
			ps[i] = e.Payload
		}
		return ps, true
	}
	return func(a, b mcast.AppMsg) bool {
		pa, ok := payloadsOf(a)
		if !ok {
			return true
		}
		pb, ok := payloadsOf(b)
		if !ok {
			return true
		}
		for _, x := range pa {
			for _, y := range pb {
				if rel(x, y) {
					return true
				}
			}
		}
		return false
	}
}
