// Package blackbox implements the two baselines the paper compares against
// (§IV, §VI "Competitor protocols"), which use consensus as a black box:
// each group simulates one reliable process of Skeen's protocol (Fig. 1,
// internal/rsm) by state-machine replication over a Paxos log
// (internal/paxos). Both of Skeen's actions are replicated commands —
// assigning a local timestamp (CmdAssign) and committing the global one
// while advancing the clock (CmdCommit) — and each costs a round trip from
// the group leader to a quorum (2δ).
//
// # One shell, two strategies
//
// Replica is the part FT-Skeen and FastCast share: recovery replay of the
// delivered prefix, input dispatch, PROPOSE collection and commit-vector
// construction, the retry that falls back from the Cur_leader guesses to a
// blanket of the destination groups, and the one deliver that persists the
// frontier before the application sees the message and then drops the
// message's soft state. It consults an unexported strategy where the
// protocols really differ:
//
//   - how the leader obtains a local timestamp. FT-Skeen (ftskeen.go, the
//     classical design of Fritzke et al.) announces it only once CmdAssign
//     has applied. FastCast (fastcast.go; Coelho, Schiper and Pedone, DSN
//     2017) issues a tentative one, announces it at once while consensus
//     persists it, and CONFIRMs the decided value afterwards.
//   - what a committed vector must satisfy before delivery: nothing, or a
//     CONFIRM from every destination group for the timestamps it was built
//     from — otherwise the commit is re-proposed with the confirmed vector
//     (a wrong speculation, possible only across leader changes).
//   - who delivers: every replica, deterministically from its log, or the
//     leader alone, which replicates its decisions with a chain of DELIVER
//     messages (one hop off the critical path) and replays them to a
//     follower whose heartbeat acks show it stalled.
//
// # Latencies
//
// FT-Skeen runs the two consensus instances in sequence, so a destination
// leader delivers after
//
//	MULTICAST (δ) + consensus (2δ) + PROPOSE (δ) + consensus (2δ) = 6δ
//
// collision-free, and after 12δ failure-free: the clock only advances past
// a message's global timestamp when the second consensus completes, so the
// convoy window is the full 6δ.
//
// FastCast overlaps them. In failure-free runs the speculation always
// succeeds, and a destination leader delivers after
//
//	MULTICAST (δ) + max(consensus₁ (2δ) + CONFIRM (δ),
//	                    PROPOSE (δ) + consensus₂ (2δ)) = 4δ
//
// collision-free, and after 8δ failure-free: the durable clock advance
// still completes with consensus₂, so the convoy window is C = 4δ.
// Followers deliver one hop after their leader (FT-Skeen 7δ via Learn,
// FastCast 5δ via DELIVER).
//
// # Layering
//
// blackbox implements node.Handler on top of internal/paxos and
// internal/rsm. FTSkeen and FastCast build a replica of either variant from
// a core.Config — its timers and identity — and the protocol table
// (internal/protocols) plugs both into the same workloads, fault schedules
// and checks as the other protocols. internal/skeen stays separate on purpose: it is Fig. 1 with
// no Paxos underneath, and folding it in would make the shell branch on
// group size.
package blackbox
