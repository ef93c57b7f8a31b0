package wbcast

import (
	"context"
	"fmt"
	"sync/atomic"

	"wbcast/internal/client"
	"wbcast/internal/mcast"
	"wbcast/internal/node"
	"wbcast/internal/obs"
)

// Client multicasts application messages to the groups of a deployment.
// Safe for concurrent use; each Multicast blocks until every destination
// group has delivered the message (at its first replica) or the context
// expires, which cancels it.
//
// Clients are ordinary processes of the deployment: on the TCP transport a
// client runs its own node (replicas send delivery replies back to it), so
// its process ID must appear in the transport's peer address map.
type Client struct {
	top *mcast.Topology
	tr  Transport
	pid ProcessID
	h   *client.Client
	reg *obs.Registry
	seq atomic.Uint32
}

// NewClient builds and starts a client with the given process ID on
// cfg.Transport. pid must not collide with a replica slot of the topology
// (replicas occupy 0..Groups×Replicas-1), and on a durable deployment it
// must not be reused across restarts: a client numbers its messages from 1,
// and a replica that recovered a message of an earlier client with the same
// ID takes the new message for a retry of that one — it answers, and
// delivers nothing. Cluster.NewClient does the same with automatic ID
// assignment, past every client the recovered stores know of.
func NewClient(cfg Config, pid ProcessID) (*Client, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	top := mcast.UniformTopology(cfg.Groups, cfg.Replicas)
	if err := cfg.Transport.open(&cfg); err != nil {
		return nil, err
	}
	return newClientOn(cfg, top, pid)
}

// newClientOn wires a client into an already-opened transport; cfg is
// normalised.
func newClientOn(cfg Config, top *mcast.Topology, pid ProcessID) (*Client, error) {
	if top.IsReplica(pid) {
		return nil, fmt.Errorf("wbcast: client ID %d collides with a replica of the %d×%d topology", pid, cfg.Groups, cfg.Replicas)
	}
	reg := obs.NewRegistry(fmt.Sprintf(`proc="%d"`, pid))
	cl := &Client{top: top, tr: cfg.Transport, pid: pid, reg: reg}
	retry := 50 * cfg.Delta
	if !cfg.Transport.backgroundTimers() {
		// The plain simulated transport pumps submissions to quiescence;
		// a retry timer would re-arm forever and keep it from quiescing.
		// (In chaos mode timers stay on — retries are the client-side
		// recovery path for faulted messages.)
		retry = 0
	}
	cl.h = client.New(client.Config{
		PID: pid,
		Contacts: func(g GroupID) []ProcessID {
			return []ProcessID{top.InitialLeader(g)}
		},
		RetryContacts: func(g GroupID) []ProcessID { return top.Members(g) },
		Retry:         retry,
		Obs:           obs.NewClient(reg, cfg.clock, cfg.tracer, pid),
	})
	if err := cfg.Transport.add(cl.h, hostOptions{reg: cl.reg}); err != nil {
		return nil, err
	}
	return cl, nil
}

// ID returns the client's process ID (the sender of its messages).
func (cl *Client) ID() ProcessID { return cl.pid }

// BatchesSent returns how many protocol-level multicasts the client has
// sent, retries not counted: one per destination set per drain of its
// mailbox. While other multicasts of the client are in flight, a drain
// ends only once a yield of the processor brings in no more submissions, so
// concurrent callers that are ready to run share one.
// Throughput reporters divide payloads by it to obtain the achieved mean
// batch size.
func (cl *Client) BatchesSent() int64 { return cl.h.BatchesSent() }

// Metrics returns a snapshot of the client's metrics: the end-to-end
// submit-to-complete latency histogram and retry counts.
func (cl *Client) Metrics() MetricsSnapshot { return cl.reg.Snapshot() }

// Close crash-stops the client's process on its transport. In-flight
// multicasts never complete and are re-sent no more (their contexts expire;
// a Cancel after Close is a no-op); messages already handed to the protocol
// may still be delivered. On the TCP and in-process transports a Multicast
// after Close returns an error.
func (cl *Client) Close() { cl.tr.crash(cl.pid) }

// Multicast sends payload to the given destination groups and waits until
// every destination group has delivered it. It returns the message ID,
// which appears in the Delivery records observed via subscriptions. If ctx
// ends first, Multicast cancels the message (Cancel) and returns ctx.Err().
func (cl *Client) Multicast(ctx context.Context, payload []byte, groups ...GroupID) (MsgID, error) {
	id, done, err := cl.MulticastAsync(payload, groups...)
	if err != nil {
		return id, err
	}
	select {
	case <-done:
		return id, nil
	case <-ctx.Done():
		cl.Cancel(id)
		return id, ctx.Err()
	}
}

// MulticastAsync sends payload to the given destination groups and returns
// immediately; the returned channel is closed once every destination group
// has delivered the message. A caller that stops waiting calls Cancel, or
// the client keeps re-sending the message until every group answers.
func (cl *Client) MulticastAsync(payload []byte, groups ...GroupID) (MsgID, <-chan struct{}, error) {
	if len(groups) == 0 {
		return 0, nil, fmt.Errorf("wbcast: no destination groups")
	}
	dest := NewGroupSet(groups...)
	for _, g := range dest {
		if int(g) < 0 || int(g) >= cl.top.NumGroups() {
			return 0, nil, fmt.Errorf("wbcast: unknown group %d", g)
		}
	}
	id := mcast.MakeMsgID(cl.pid, cl.seq.Add(1))
	pl := make([]byte, len(payload))
	copy(pl, payload)
	done := make(chan struct{})
	if err := cl.tr.inject(cl.pid, node.Submit{Msg: AppMsg{ID: id, Dest: dest, Payload: pl}, Done: done}); err != nil {
		return id, nil, err
	}
	return id, done, nil
}

// Cancel gives up multicast id: the client stops re-sending it, and its
// MulticastAsync channel is never closed. A message already handed to the
// protocol may still be delivered — if any correct replica delivers it,
// every correct replica of every destination group does. Cancelling a
// message that has completed or that this client did not send, or
// cancelling after Close, is a no-op.
func (cl *Client) Cancel(id MsgID) { _ = cl.tr.inject(cl.pid, node.Cancel{ID: id}) }
