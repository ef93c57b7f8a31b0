// Package client implements the multicast client used by every protocol: it
// sends MULTICAST to its leader guess for each destination group (Fig. 4
// lines 1–2), collects the per-group delivery replies — learning from their
// ballots who leads each group now — and re-sends MULTICAST on a timer, the
// paper's message-recovery mechanism (§IV).
//
// A Submit is only recorded. At the end of the drain that consumed it
// (node.Drainer), what the drain submitted leaves as one MULTICAST per
// destination set: a lone submission as the message itself, several as one
// batch envelope, which the replicas' delivery paths unpack
// (internal/batch). Retries and leader changes re-send the whole envelope.
// On a wall-clock node a drain that holds a submission while other
// multicasts are in flight ends only once a yield of the processor brings in
// no more input (Gather, node.Mailbox.Run), so callers that one burst of
// replies woke together submit into one drain.
//
// A Cancel gives a submission up: it leaves the drain in progress, or the
// request that carries it, which leaves inflight once it carries none — its
// retry timer then finds nothing, and no later send names a lone cancelled
// ID. A cancelled submission is never reported complete.
package client

import (
	"slices"
	"sync/atomic"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wire"
)

// maxEnvelopeMsgs bounds the payloads of one envelope: as many inputs as one
// drain of a wall-clock runtime's mailbox holds (node.Mailbox.Run).
const maxEnvelopeMsgs = 64

// maxEnvelopeBytes bounds the payload bytes of one envelope; a drain's
// payloads to one destination set that exceed it leave in several, and a
// payload larger than it leaves alone.
const maxEnvelopeBytes = 64 << 10

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
	// every destination group of a submitted message have arrived — for the
	// payloads of one envelope, in envelope order, cancelled ones skipped.
	// Runtimes use it to drive closed-loop workloads.
	OnComplete func(id mcast.MsgID)
	// Obs is the client's instrumentation handle; nil disables metrics and
	// tracing.
	Obs *obs.Client
}

// Client is the client-side protocol handler. It implements node.Handler.
type Client struct {
	cfg Config
	// inflight holds the multicasts sent and not yet answered by every
	// destination group, by the ID they were sent with.
	inflight map[mcast.MsgID]*request
	// ballots is Cur_leader (Fig. 4 line 2): per group, the highest ballot a
	// reply has carried. Its leader is where first attempts go.
	ballots map[mcast.GroupID]mcast.Ballot
	// drain holds what the drain in progress submitted, in order; rest is
	// EndDrain's scratch.
	drain, rest []submission
	envSeq      uint32
	// sent counts the multicasts EndDrain has sent; benchmark reporters read
	// it from other goroutines.
	sent atomic.Int64
}

// submission is a submitted message, the channel its Submit asked to have
// closed on completion (nil for none) and its submission time on the
// observability clock.
type submission struct {
	m    mcast.AppMsg
	done chan struct{}
	at   time.Duration
}

// request is a multicast sent and not yet answered by every destination
// group: got records the groups that have answered, by position in m.Dest,
// and subs the submissions it answers, in order — m itself, or the payloads
// of the envelope m, less those cancelled since.
type request struct {
	m    mcast.AppMsg
	got  []bool
	subs []submission
}

// New constructs a Client.
func New(cfg Config) *Client {
	return &Client{cfg: cfg, inflight: make(map[mcast.MsgID]*request), ballots: make(map[mcast.GroupID]mcast.Ballot)}
}

// ID implements node.Handler.
func (c *Client) ID() mcast.ProcessID { return c.cfg.PID }

// Inflight returns the number of multicasts — messages or envelopes —
// awaiting replies.
func (c *Client) Inflight() int { return len(c.inflight) }

// Awaiting reports whether multicast id is still waiting for replies.
func (c *Client) Awaiting(id mcast.MsgID) bool { return c.inflight[id] != nil }

// BatchesSent returns how many multicasts the client has sent, retries and
// leader-change re-sends not counted: one per destination set per drain,
// more where a drain's payloads fill several envelopes — so submissions
// over BatchesSent is the mean batch, which the yield at the end of a
// wall-clock drain raises (Gather). It is safe to call concurrently with the
// handler.
func (c *Client) BatchesSent() int64 { return c.sent.Load() }

// Gather implements node.Drainer: a drain that holds a submission waits for
// more while other multicasts of the client are in flight — their callers
// are the ones a burst of replies wakes together. A client whose one caller
// waits for each multicast never yields.
func (c *Client) Gather() bool { return len(c.drain) > 0 && len(c.inflight) > 0 }

// Handle implements node.Handler.
func (c *Client) Handle(in node.Input, fx *node.Effects) {
	switch in := in.(type) {
	case node.Start:
	case node.Submit:
		if _, dup := c.inflight[in.Msg.ID]; !dup {
			s := submission{m: in.Msg, done: in.Done}
			c.cfg.Obs.OnSubmit(s.m.ID, &s.at)
			c.drain = append(c.drain, s)
		}
	case node.Cancel:
		c.cancel(in.ID)
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

// EndDrain implements node.Drainer: what the drain submitted leaves, one
// destination set at a time in the order of their first submission.
func (c *Client) EndDrain(fx *node.Effects) {
	ms, rest := c.drain, c.rest
	for len(ms) > 0 {
		dest, n := ms[0].m.Dest, 0
		for _, s := range ms {
			if s.m.Dest.Equal(dest) {
				ms[n] = s
				n++
			} else {
				rest = append(rest, s)
			}
		}
		c.ship(ms[:n], fx)
		clear(ms)
		ms, rest = rest, ms[:0]
	}
	c.drain, c.rest = ms, rest
}

// ship sends submissions to one destination set, in order: a lone one as
// itself, several as envelopes of at most maxEnvelopeMsgs payloads and
// maxEnvelopeBytes bytes.
func (c *Client) ship(ms []submission, fx *node.Effects) {
	for len(ms) > 0 {
		n, size := 1, len(ms[0].m.Payload)
		for n < len(ms) && n < maxEnvelopeMsgs && size+len(ms[n].m.Payload) <= maxEnvelopeBytes {
			size += len(ms[n].m.Payload)
			n++
		}
		req := &request{m: ms[0].m, got: make([]bool, len(ms[0].m.Dest)), subs: slices.Clone(ms[:n])}
		if n > 1 {
			c.envSeq++
			req.m = mcast.AppMsg{ID: mcast.MakeBatchID(c.cfg.PID, c.envSeq), Dest: req.m.Dest, Payload: envelope(req.subs)}
		}
		ms = ms[n:]
		c.inflight[req.m.ID] = req
		c.sent.Add(1)
		c.send(req.m, nil, fx)
		if c.cfg.Retry > 0 {
			fx.SetTimer(c.cfg.Retry, node.TimerClient, uint64(req.m.ID))
		}
	}
}

// envelope encodes the payload of a batch envelope: the wire form of a
// msgs.Batch, decoded by batch.DecodePayload.
func envelope(subs []submission) []byte {
	entries := make([]msgs.BatchEntry, len(subs))
	for i, s := range subs {
		entries[i] = msgs.BatchEntry{ID: s.m.ID, Payload: s.m.Payload}
	}
	buf, err := wire.Encode(nil, msgs.Batch{Entries: entries})
	if err != nil {
		// wire.Encode cannot fail for msgs.Batch; keep the invariant loud.
		panic("client: encode envelope: " + err.Error())
	}
	return buf
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
		if i := slices.Index(req.m.Dest, g); i >= 0 && !req.got[i] {
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
		return // duplicate reply after completion, or cancelled
	}
	if i := slices.Index(req.m.Dest, g); i >= 0 {
		req.got[i] = true
	}
	if slices.Contains(req.got, false) {
		return
	}
	delete(c.inflight, id)
	for _, s := range req.subs {
		c.cfg.Obs.OnComplete(s.m.ID, s.at)
		if s.done != nil {
			close(s.done)
		}
		if c.cfg.OnComplete != nil {
			c.cfg.OnComplete(s.m.ID)
		}
	}
}

// cancel gives submission id up: it leaves the drain in progress, or the
// request that carries it. A request left with no submission leaves
// inflight. An ID already complete, cancelled or never submitted is a no-op.
func (c *Client) cancel(id mcast.MsgID) {
	isID := func(s submission) bool { return s.m.ID == id }
	if i := slices.IndexFunc(c.drain, isID); i >= 0 {
		c.drain = slices.Delete(c.drain, i, i+1)
		return
	}
	for rid, req := range c.inflight {
		if i := slices.IndexFunc(req.subs, isID); i >= 0 {
			if req.subs = slices.Delete(req.subs, i, i+1); len(req.subs) == 0 {
				delete(c.inflight, rid)
			}
			return
		}
	}
}

func (c *Client) onRetry(id mcast.MsgID, fx *node.Effects) {
	req, ok := c.inflight[id]
	if !ok {
		return // completed or cancelled; stale timer
	}
	// Message recovery (paper §IV): re-send MULTICAST to the (possibly
	// updated) contacts of every destination group. Groups that already
	// processed m re-send their protocol messages; others start processing.
	c.cfg.Obs.OnRetry(id)
	c.send(req.m, c.cfg.RetryContacts, fx)
	fx.SetTimer(c.cfg.Retry, node.TimerClient, uint64(id))
}

var (
	_ node.Handler = (*Client)(nil)
	_ node.Drainer = (*Client)(nil)
)
