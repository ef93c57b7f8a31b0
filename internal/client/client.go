// Package client implements the multicast client used by every protocol: it
// sends MULTICAST to the contact processes of each destination group
// (Fig. 4 line 1), collects the per-group delivery replies, and re-sends
// MULTICAST on a timer — the paper's message-recovery mechanism (§IV), which
// also covers leader changes.
package client

import (
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
)

// Contacts returns the processes to which MULTICAST(m) should be sent for
// destination group g: the single member for Skeen's protocol, the current
// leader guess (Cur_leader[g]) for the replicated protocols. A slice is
// returned so an uncertain client can blanket the whole group.
type Contacts func(g mcast.GroupID) []mcast.ProcessID

// Config parametrises a Client.
type Config struct {
	// PID is the client's process ID (must not collide with replicas).
	PID mcast.ProcessID
	// Contacts supplies the MULTICAST targets per group.
	Contacts Contacts
	// Retry is the interval after which an incomplete multicast is re-sent.
	// Zero disables retries (appropriate when no failures are injected).
	Retry time.Duration
	// RetryContacts, if non-nil, supplies the targets for re-sends. The
	// paper notes a client with a stale leader guess "can always send the
	// message to all the processes in a given group" (§IV); pass a
	// whole-group contact function here to get that behaviour after a
	// leader change. Defaults to Contacts.
	RetryContacts Contacts
	// OnComplete, if non-nil, is invoked during Handle when replies from
	// every destination group of a message have arrived. Runtimes use it to
	// drive closed-loop workloads.
	OnComplete func(id mcast.MsgID)
	// Obs is the client's instrumentation handle; nil disables metrics and
	// tracing.
	Obs *obs.Client
}

// Client is the client-side protocol handler. It implements node.Handler.
type Client struct {
	cfg      Config
	inflight map[mcast.MsgID]*request
	// completed counts finished multicasts.
	completed int
}

type request struct {
	m   mcast.AppMsg
	got map[mcast.GroupID]bool
	// at is the submission timestamp on the observability clock.
	at time.Duration
}

// New constructs a Client.
func New(cfg Config) *Client {
	return &Client{cfg: cfg, inflight: make(map[mcast.MsgID]*request)}
}

// ID implements node.Handler.
func (c *Client) ID() mcast.ProcessID { return c.cfg.PID }

// Inflight returns the number of multicasts awaiting replies.
func (c *Client) Inflight() int { return len(c.inflight) }

// Completed returns the number of multicasts that have completed.
func (c *Client) Completed() int { return c.completed }

// Handle implements node.Handler.
func (c *Client) Handle(in node.Input, fx *node.Effects) {
	switch in := in.(type) {
	case node.Start:
	case node.Submit:
		c.submit(in.Msg, fx)
	case node.Recv:
		switch r := in.Msg.(type) {
		case msgs.ClientReply:
			c.onReply(r.ID, r.Group)
		case msgs.ClientReplies:
			for _, id := range r.IDs {
				c.onReply(id, r.Group)
			}
		}
	case node.Timer:
		if in.Kind == node.TimerClient {
			c.onRetry(mcast.MsgID(in.Data), fx)
		}
	}
}

func (c *Client) submit(m mcast.AppMsg, fx *node.Effects) {
	if _, dup := c.inflight[m.ID]; dup {
		return
	}
	req := &request{m: m, got: make(map[mcast.GroupID]bool, len(m.Dest))}
	c.inflight[m.ID] = req
	c.cfg.Obs.OnSubmit(m.ID, &req.at)
	c.send(m, fx)
	if c.cfg.Retry > 0 {
		fx.SetTimer(c.cfg.Retry, node.TimerClient, uint64(m.ID))
	}
}

func (c *Client) send(m mcast.AppMsg, fx *node.Effects) {
	for _, g := range m.Dest {
		for _, p := range c.cfg.Contacts(g) {
			fx.Send(p, msgs.Multicast{M: m})
		}
	}
}

// onReply records that group g delivered id — told by its leader's
// ClientReply or by one entry of a follower's ClientReplies.
func (c *Client) onReply(id mcast.MsgID, g mcast.GroupID) {
	req, ok := c.inflight[id]
	if !ok {
		return // duplicate reply after completion
	}
	req.got[g] = true
	for _, g := range req.m.Dest {
		if !req.got[g] {
			return
		}
	}
	delete(c.inflight, id)
	c.completed++
	c.cfg.Obs.OnComplete(id, req.at)
	if c.cfg.OnComplete != nil {
		c.cfg.OnComplete(id)
	}
}

func (c *Client) onRetry(id mcast.MsgID, fx *node.Effects) {
	req, ok := c.inflight[id]
	if !ok {
		return // completed; stale timer
	}
	// Message recovery (paper §IV): re-send MULTICAST to the (possibly
	// updated) contacts of every destination group. Groups that already
	// processed m re-send their protocol messages; others start processing.
	c.cfg.Obs.OnRetry(id)
	contacts := c.cfg.RetryContacts
	if contacts == nil {
		contacts = c.cfg.Contacts
	}
	for _, g := range req.m.Dest {
		for _, p := range contacts(g) {
			fx.Send(p, msgs.Multicast{M: req.m})
		}
	}
	fx.SetTimer(c.cfg.Retry, node.TimerClient, uint64(id))
}

var _ node.Handler = (*Client)(nil)
