// Package paxos implements the per-group multi-Paxos replicated log used as
// the black-box consensus substrate of the baseline protocols (fault-
// tolerant Skeen [Fritzke et al.] and FastCast [Coelho et al.]), exactly the
// strawman design the paper's white-box protocol improves on (§IV).
//
// Each group runs an independent instance: a leader assigns log slots and
// drives acceptance (phase 2); a quorum of acknowledgements chooses a slot,
// which the leader announces with Learn messages. Leader changes run phase 1
// (P1a/P1b), adopt the highest-ballot accepted value per slot, and fill
// holes with no-ops. Commands are applied in slot order on every replica
// through the App callback, giving the embedding protocol a deterministic
// replicated state machine.
//
// The component is not a node.Handler itself: the embedding protocol routes
// inputs to HandleMessage/HandleTimer and uses Propose when leading.
//
// # Layering
//
// paxos is the replication substrate of the baselines only: internal/blackbox
// embeds a Replica per group member and builds FT-Skeen and FastCast on its
// App callback. The white-box protocol (internal/core) replaces this
// layer with its fused ACCEPT/ACCEPT_ACK exchange.
package paxos
