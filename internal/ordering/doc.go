// Package ordering implements the delivery rule shared by every protocol in
// this repository (Skeen Fig. 1 line 17; white-box Fig. 4 lines 21 and 66;
// and the baselines' replicated state machine):
//
//	a committed message m' may be delivered once every message still
//	pending (PROPOSED or ACCEPTED) has a local timestamp greater than
//	GlobalTS[m'], and committed messages are delivered in GlobalTS order.
//
// Queue maintains the pending set keyed by local timestamp and the
// committed-undelivered set keyed by global timestamp, answering the rule in
// O(log n) per operation via two lazily-pruned binary heaps (internal/pq).
//
// # Layering
//
// ordering is a pure data structure above internal/mcast and internal/pq, used by
// internal/core directly and by the baselines through internal/rsm.
package ordering
