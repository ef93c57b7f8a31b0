// Package wire is the repository's one binary codec. A Writer appends
// fields to a byte slice and a Reader reads them back; every byte format
// is written and read through this pair:
//
//   - protocol messages (Encode, Decode, DecodeBorrowed): a kind byte,
//     then the message's fields;
//   - WAL entries (internal/wal): a kind byte, then the entry's fields. A
//     message record uses the layout NEW_STATE carries (Writer.Record);
//   - kv operations (internal/kvstore): the payload of every kv multicast,
//     decoded by each replica that applies it;
//   - kv applied records and app snapshots (internal/kvstore): the kv
//     engine's redo log and snapshot, which ride the WAL as app entries.
//
// Fields are unsigned or zigzag varints, single bytes, and byte strings
// behind their length. A value has one encoding: the Reader accepts only
// the shortest varint. A Reader's error is sticky, so a decoder reads
// straight through and checks once, with Done. A collection's count may
// not exceed the bytes left, and in a message it is also capped at 2²⁰
// elements, so what a decoder allocates is bounded by its input. There is
// no reflection and no external dependency.
//
// # Layering
//
// wire sits below internal/msgs's typed messages and the stores. Protocol
// logic never sees bytes. The simulator and the in-process runtime send
// messages unencoded, but their durable runs write and read WAL entries,
// and kv runs encode and decode ops on every runtime. internal/tcpnet
// frames encoded messages.
package wire
