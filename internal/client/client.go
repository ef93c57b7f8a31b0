// Package client implements the multicast client used by every protocol: it
// sends MULTICAST to its leader guess for each destination group (Fig. 4
// lines 1–2), collects the per-group delivery replies — learning from their
// ballots who leads each group now — and re-sends MULTICAST on a timer, the
// paper's message-recovery mechanism (§IV).
package client

import (
	"slices"
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
	// Contacts supplies the MULTICAST targets of a group until a reply has
	// named that group's leader (Client.Leader).
	Contacts Contacts
	// Retry is the interval after which an incomplete multicast is re-sent.
	// Zero disables retries (appropriate when no failures are injected).
	Retry time.Duration
	// RetryContacts, if non-nil, supplies the targets for re-sends. The
	// paper notes a client with a stale leader guess "can always send the
	// message to all the processes in a given group" (§IV); pass a
	// whole-group contact function here to get that behaviour after a
	// leader change. Defaults to where first attempts go: the leader learnt
	// from the replies so far, Contacts before that.
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
	// ballots is Cur_leader (Fig. 4 line 2): per group, the highest ballot a
	// reply has carried. Its leader is where first attempts go.
	ballots map[mcast.GroupID]mcast.Ballot
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
	return &Client{cfg: cfg, inflight: make(map[mcast.MsgID]*request), ballots: make(map[mcast.GroupID]mcast.Ballot)}
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
			c.noteBallot(r.Group, r.Bal, fx)
		case msgs.ClientReplies:
			for _, id := range r.IDs {
				c.onReply(id, r.Group)
			}
			c.noteBallot(r.Group, r.Bal, fx)
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
	c.send(m, nil, fx)
	if c.cfg.Retry > 0 {
		fx.SetTimer(c.cfg.Retry, node.TimerClient, uint64(m.ID))
	}
}

// send sends MULTICAST(m) to every destination group: to the group's targets
// under blanket if a retry names them, otherwise to Leader(g), or to the
// configured contacts while no single leader is known.
func (c *Client) send(m mcast.AppMsg, blanket Contacts, fx *node.Effects) {
	for _, g := range m.Dest {
		to := blanket
		if to == nil {
			if p := c.Leader(g); p != mcast.NoProcess {
				fx.Send(p, msgs.Multicast{M: m})
				continue
			}
			to = c.cfg.Contacts
		}
		for _, p := range to(g) {
			fx.Send(p, msgs.Multicast{M: m})
		}
	}
}

// Leader returns Cur_leader[g], the one process first attempts for group g go
// to: the leader of the highest ballot a reply of g has carried or, before the
// first, the configured contact (NoProcess if Contacts names several).
func (c *Client) Leader(g mcast.GroupID) mcast.ProcessID {
	if b, ok := c.ballots[g]; ok {
		return b.Leader()
	}
	if ps := c.cfg.Contacts(g); len(ps) == 1 {
		return ps[0]
	}
	return mcast.NoProcess
}

// noteBallot learns group g's leader from the ballot of a reply (zero from
// protocols without ballots). When the leader is no longer the process the
// client has been sending to, every request still waiting for g's reply went
// to the wrong place: each is sent again, in full — the new leader proposes
// it, the other destination groups' leaders re-send the ACCEPTs it needs —
// instead of waiting out its retry timer.
func (c *Client) noteBallot(g mcast.GroupID, b mcast.Ballot, fx *node.Effects) {
	if !c.ballots[g].Less(b) {
		return
	}
	was := c.Leader(g)
	c.ballots[g] = b
	if was == b.Leader() {
		return
	}
	var ids []mcast.MsgID
	for id, req := range c.inflight {
		if req.m.Dest.Contains(g) && !req.got[g] {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids) // not map order: a seeded run replays its sends exactly
	for _, id := range ids {
		c.send(c.inflight[id].m, nil, fx)
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
	c.send(req.m, c.cfg.RetryContacts, fx)
	fx.SetTimer(c.cfg.Retry, node.TimerClient, uint64(id))
}

var _ node.Handler = (*Client)(nil)
