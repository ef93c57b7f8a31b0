package obs

// Canonical metric names. Every name used anywhere in the codebase is
// declared here, so the documentation gate (scripts/check-docs.sh) can
// cross-check the catalog in docs/OBSERVABILITY.md against one file.
//
// Histogram-valued metrics are exposed in Prometheus summary form
// (quantile series plus _sum/_count/_max), with durations in seconds.
const (
	// MetricStageLatency is the per-stage protocol latency histogram,
	// labelled {stage="propose|accept|commit|deliver"}: the time a message
	// spent in the preceding stage at this replica (Fig. 4's START →
	// ACCEPT → GTS-commit → DELIVER path).
	MetricStageLatency = "wbcast_stage_latency_seconds"
	// MetricRetransmits counts leader-side MULTICAST re-sends (Fig. 4
	// lines 32-34).
	MetricRetransmits = "wbcast_retransmits_total"
	// MetricStepDowns counts leadership losses (a higher ballot observed).
	MetricStepDowns = "wbcast_step_downs_total"
	// MetricElections counts candidacies started by this replica.
	MetricElections = "wbcast_elections_total"
	// MetricCatchups counts heartbeat-ack-driven catch-up replays sent to
	// stalled followers.
	MetricCatchups = "wbcast_catchups_total"
	// MetricCommits counts messages committed (GTS fixed) at this replica.
	MetricCommits = "wbcast_commits_total"
	// MetricDeliveries counts protocol-level deliveries at this replica.
	MetricDeliveries = "wbcast_deliveries_total"
	// MetricGenEarlyReleases counts conflict-mode (genmcast) releases that
	// the strict total-order delivery rule would still have held back — the
	// commuting deliveries whose latency the conflict relation saved.
	MetricGenEarlyReleases = "genmcast_early_releases_total"
	// MetricGenReleaseBlocked counts conflict-mode release-scan passes over
	// a committed message that stayed blocked behind an unreleased
	// conflicting message.
	MetricGenReleaseBlocked = "genmcast_release_blocked_total"

	// MetricClientE2E is the client's submit-to-complete latency histogram.
	MetricClientE2E = "wbcast_client_e2e_latency_seconds"
	// MetricClientRetries counts client-side MULTICAST re-sends.
	MetricClientRetries = "wbcast_client_retries_total"

	// MetricMailboxDepth is the process's current input-queue length.
	MetricMailboxDepth = "wbcast_mailbox_depth"
	// MetricMailboxHighWater is the largest input-queue length observed.
	MetricMailboxHighWater = "wbcast_mailbox_high_water"
	// MetricMessagesEncoded counts distinct messages serialised to wire
	// form (once per send, however many recipients it fans out to).
	MetricMessagesEncoded = "wbcast_messages_encoded_total"
	// MetricFramesSent counts frames appended to peer links, one per
	// destination process per send.
	MetricFramesSent = "wbcast_frames_sent_total"
	// MetricFramesCoalesced counts frames beyond the first in one write:
	// those that rode along instead of costing their own syscall.
	MetricFramesCoalesced = "wbcast_frames_coalesced_total"
	// MetricOutboundDrops counts frames dropped on the way out.
	MetricOutboundDrops = "wbcast_outbound_drops_total"
	// MetricReconnects counts outbound redials after connection failures.
	MetricReconnects = "wbcast_reconnects_total"
	// MetricFramesRead counts inbound frames successfully decoded.
	MetricFramesRead = "wbcast_frames_read_total"
	// MetricSocketReads counts Read calls on inbound connections: frames
	// read per socket read is how much a segment carried.
	MetricSocketReads = "wbcast_socket_reads_total"
	// MetricSocketWrites counts writes to outbound connections, one
	// write call each: frames sent per socket write is how much one drain
	// produced for one peer.
	MetricSocketWrites = "wbcast_socket_writes_total"
	// MetricEncodeStage is the outbound codec-stage latency histogram:
	// time to serialise one message to wire form on the process's loop.
	MetricEncodeStage = "wbcast_encode_stage_seconds"
	// MetricDecodeStage is the inbound codec-stage latency histogram:
	// time to parse one frame (header + borrow-mode message decode) on a
	// read loop, before it is posted to the mailbox.
	MetricDecodeStage = "wbcast_decode_stage_seconds"
	// The ack-batch-size histogram is retired: no node registers it since
	// every frame carries one message. The name stays declared for readers
	// built against it, which find no samples.
	MetricAckBatchSize = "wbcast_ack_batch_size"
	// MetricShardCommitInputs is the inputs-per-commit histogram of the
	// shard loops on a durable store: how many Handle calls one WAL sync
	// released (group commit), i.e. the batch size the load produces.
	// Unitless count, recorded as 1 input = 1s.
	MetricShardCommitInputs = "wbcast_shard_commit_inputs"

	// MetricTraceDropped counts trace events discarded because the
	// tracer's bounded buffer was full.
	MetricTraceDropped = "wbcast_trace_dropped_total"

	// MetricWALAppend is the WAL append latency histogram (framing,
	// checksumming and writing one Handle call's entries).
	MetricWALAppend = "wbcast_wal_append_seconds"
	// MetricWALFsync is the WAL fsync latency histogram.
	MetricWALFsync = "wbcast_wal_fsync_seconds"
	// MetricWALBytes is the current WAL length in bytes (drops to zero at
	// every snapshot truncation).
	MetricWALBytes = "wbcast_wal_bytes"
	// MetricSnapshots counts snapshots written (each truncates the WAL).
	MetricSnapshots = "wbcast_snapshots_total"
	// MetricSnapshotDuration is the snapshot encode+write+rename latency
	// histogram.
	MetricSnapshotDuration = "wbcast_snapshot_seconds"
	// MetricSnapshotBytes is the size of the last snapshot written.
	MetricSnapshotBytes = "wbcast_snapshot_bytes"
	// MetricReplayEntries counts WAL entries replayed at recovery.
	MetricReplayEntries = "wbcast_replay_entries_total"
	// MetricTornTails counts torn WAL tails detected and truncated at
	// recovery.
	MetricTornTails = "wbcast_wal_torn_tails_total"

	// MetricKVOps counts key-value operations completed by a kv client,
	// labelled {op="get|put|delete|txn"}.
	MetricKVOps = "wbcast_kv_ops_total"
	// MetricKVOpLatency is the kv client's submit-to-complete operation
	// latency histogram, labelled {dests="single|multi"} — the cross-shard
	// penalty the paper's evaluation measures, as a live metric.
	MetricKVOpLatency = "wbcast_kv_op_latency_seconds"
	// MetricKVApplied counts operations applied by a kv shard engine (one
	// per delivery the engine consumed and executed).
	MetricKVApplied = "wbcast_kv_applied_total"
	// MetricKVKeys is the number of keys currently stored by a kv shard
	// engine.
	MetricKVKeys = "wbcast_kv_keys"
	// MetricKVReplayed counts operations a kv shard engine re-applied at
	// recovery (snapshot records, app-log records and protocol replay).
	MetricKVReplayed = "wbcast_kv_replayed_total"
	// MetricKVDuplicates counts deliveries a kv shard engine skipped as
	// duplicates (at or below its applied frontier) — nonzero only across
	// recovery replays.
	MetricKVDuplicates = "wbcast_kv_duplicates_total"
)

// Lifecycle stages recorded by the tracer and keyed into the stage
// histogram. StageSubmit/StageComplete bracket the client side;
// StageStart through StageDeliver are the replica-side pipeline.
const (
	StageSubmit   = "submit"   // client accepted the payload
	StageStart    = "start"    // replica first saw the message (START/MULTICAST)
	StagePropose  = "propose"  // leader assigned the local timestamp (PROPOSED)
	StageAccept   = "accept"   // ACCEPTs from every destination group (ACCEPTED)
	StageCommit   = "commit"   // global timestamp fixed (COMMITTED)
	StageDeliver  = "deliver"  // delivered at this replica
	StageComplete = "complete" // client received replies from all groups
)

// Recovery-path and infrastructure events recorded by the tracer.
const (
	EventRetransmit  = "retransmit"   // leader re-sent MULTICAST
	EventClientRetry = "client-retry" // client re-sent MULTICAST
	EventStepDown    = "step-down"    // replica lost leadership
	EventElection    = "election"     // replica started a candidacy
	EventCatchup     = "catchup"      // leader replayed deliveries to a stalled follower
	EventFault       = "fault"        // an injected fault fired (crash/partition/heal/...)
)
