package wbcast

import (
	"sync"

	"wbcast/internal/mcast"
)

// Cluster is a whole atomic multicast deployment hosted on one Transport:
// Groups × Replicas replica processes plus any number of clients. On the
// default in-process transport this is the embedded-library deployment; on
// the TCP transport with every peer address local it is a single-machine
// cluster of real TCP servers (the shape the end-to-end tests use).
//
// Distributed deployments that host one replica per machine skip Cluster
// and start their local processes directly with NewReplica and NewClient
// on a TCP transport (see cmd/wbcast-node).
type Cluster struct {
	cfg Config // normalised
	top *mcast.Topology
	tr  Transport

	replicas []*Replica // indexed by ProcessID

	mu         sync.Mutex
	nextClient ProcessID
}

// New builds and starts a cluster on cfg.Transport (in-process when nil).
func New(cfg Config) (*Cluster, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	top := mcast.UniformTopology(cfg.Groups, cfg.Replicas)
	if err := cfg.Transport.open(&cfg); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, top: top, tr: cfg.Transport, nextClient: ProcessID(top.NumReplicas())}
	for pid := ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		r, err := newReplicaOn(cfg, top, pid)
		if err != nil {
			for _, started := range c.replicas {
				started.Close()
			}
			c.tr.Close()
			return nil, err
		}
		c.replicas = append(c.replicas, r)
		c.nextClient = max(c.nextClient, r.lastSender+1)
	}
	return c, nil
}

// NewClient attaches a new client process to the cluster, assigning it the
// next free process ID after the replicas. On a deployment reopened on
// durable stores, that is past every client its replicas recovered a message
// of: a client numbers its messages from 1, so a reused ID would resend
// message IDs the replicas already hold, and they would take each one for a
// retry of the old message. On a TCP transport every client ID the
// deployment will use must have a peers entry (replicas send delivery
// replies to it); ClientID helps lay those out.
func (c *Cluster) NewClient() (*Client, error) {
	c.mu.Lock()
	pid := c.nextClient
	c.nextClient++
	c.mu.Unlock()
	return newClientOn(c.cfg, c.top, pid)
}

// ClientID returns the process ID Cluster.NewClient assigns to the i-th
// client of a fresh deployment configured like cfg: the slot right after
// the replicas. Use it to lay out the peer address map of a TCP deployment.
func ClientID(cfg Config, i int) ProcessID {
	cfg, err := cfg.normalized()
	if err != nil {
		return NoProcess
	}
	return ProcessID(cfg.Groups*cfg.Replicas + i)
}

// Close shuts the whole deployment down — replicas, clients and the
// transport — and joins their goroutines. Configured stores are closed
// with a final sync (crash-stop semantics; use Shutdown on individual
// replicas for a final snapshot).
func (c *Cluster) Close() {
	for _, r := range c.replicas {
		r.closeSubs()
	}
	c.tr.Close()
	// The transport has joined every handler goroutine, so the final store
	// teardown cannot race an in-flight append.
	for _, r := range c.replicas {
		r.Close()
	}
}

// Replica returns the handle of replica pid, or nil if pid is not a
// replica of the topology.
func (c *Cluster) Replica(pid ProcessID) *Replica {
	if int(pid) < 0 || int(pid) >= len(c.replicas) {
		return nil
	}
	return c.replicas[pid]
}

// Replicas returns the handles of every replica, indexed by process ID.
func (c *Cluster) Replicas() []*Replica {
	out := make([]*Replica, len(c.replicas))
	copy(out, c.replicas)
	return out
}

// Metrics returns the cluster-wide metrics: every replica's snapshot
// merged with MergeMetrics (counters sum, histograms merge bucket-wise).
// Clients are separate processes; merge their snapshots in as needed.
func (c *Cluster) Metrics() MetricsSnapshot {
	snaps := make([]MetricsSnapshot, 0, len(c.replicas))
	for _, r := range c.replicas {
		snaps = append(snaps, r.Metrics())
	}
	return MergeMetrics(snaps...)
}

// Trace returns the deployment-wide trace recorded so far (see
// Replica.Trace); empty unless Config.TraceSample is set.
func (c *Cluster) Trace() []TraceEvent { return c.cfg.tracer.Events() }

// NumGroups returns the number of groups.
func (c *Cluster) NumGroups() int { return c.top.NumGroups() }

// GroupMembers returns the replica IDs of group g.
func (c *Cluster) GroupMembers(g GroupID) []ProcessID {
	out := make([]ProcessID, len(c.top.Members(g)))
	copy(out, c.top.Members(g))
	return out
}

// AllGroups returns the set of all groups.
func (c *Cluster) AllGroups() GroupSet { return c.top.AllGroups() }

// CrashReplica injects a crash-stop failure: the replica stops processing
// (on the TCP and in-process transports, its node shuts down, and what is
// sent to it is dropped). The cluster tolerates up to (Replicas-1)/2
// crashes per group.
func (c *Cluster) CrashReplica(pid ProcessID) {
	if r := c.Replica(pid); r != nil {
		r.Close()
		return
	}
	c.tr.crash(pid)
}

// InitialLeader returns the process that leads group g at startup.
func (c *Cluster) InitialLeader(g GroupID) ProcessID { return c.top.InitialLeader(g) }
