// Package batch holds the delivery side of batching: many application
// payloads for the same destination set travel as one protocol-level
// multicast, a batch envelope (amortising the fixed per-message ordering
// cost — timestamp proposals, ACK quorums, a delivery-queue pass), and are
// unpacked back into individual ordered deliveries on the far side.
//
// Envelopes are formed by the client (internal/client) under one rule: what
// one drain of its mailbox submitted leaves at the drain's end as one
// multicast per destination set. A lone submission leaves as itself, so a
// closed-loop caller never waits for a batch; there is no timer and no
// setting. An envelope's ID is marked by mcast.MakeBatchID, so the delivery
// path recognises it without sniffing payloads, and its payload is the wire
// form of a msgs.Batch (DecodePayload).
//
// ExpandInto is the one delivery-side unpacker, used by every protocol
// (white-box core, FT-Skeen, FastCast, Skeen) and by a recovering replica's
// application replay (wbcast.AppState.Replay): it turns one envelope's
// delivery into per-payload deliveries sharing the envelope's GTS and
// sub-sequenced by their position in it. Conflicts lifts a payload conflict
// relation to envelopes.
//
// Ordering: all payloads of an envelope inherit its global timestamp and
// are delivered in envelope order, so the per-payload total order is the
// lexicographic (GTS, Sub) order. Because every replica decodes the same
// envelope bytes, all replicas agree on the sub-order by construction.
package batch
