package kv

import (
	"context"
	"fmt"
	"time"

	"wbcast"
	"wbcast/internal/kvstore"
	"wbcast/internal/obs"
)

// Client issues key-value operations against a Service's cluster. Each
// operation is encoded, multicast to exactly the shards its keys map to,
// and completes once every addressed shard has applied it — so operations
// by one caller are observed in submission order (read-your-writes).
// Clients are safe for concurrent use.
type Client struct {
	cl     *wbcast.Client
	shards int
	hub    *hub

	reg       *obs.Registry
	ops       [4]obs.Counter // indexed by opIndex
	latSingle obs.Histogram
	latMulti  obs.Histogram
}

func newClient(cl *wbcast.Client, shards int, h *hub) *Client {
	c := &Client{cl: cl, shards: shards, hub: h}
	c.reg = obs.NewRegistry(fmt.Sprintf(`proc="%d"`, cl.ID()))
	for i, op := range [4]string{"get", "put", "delete", "txn"} {
		c.reg.RegisterCounter(obs.MetricKVOps+`{op="`+op+`"}`,
			"Key-value operations completed by this client.", &c.ops[i])
	}
	c.reg.RegisterHistogram(obs.MetricKVOpLatency+`{dests="single"}`,
		"Submit-to-complete latency of single-shard kv operations.", &c.latSingle)
	c.reg.RegisterHistogram(obs.MetricKVOpLatency+`{dests="multi"}`,
		"Submit-to-complete latency of multi-shard kv transactions.", &c.latMulti)
	return c
}

// ID returns the client's multicast process ID.
func (c *Client) ID() wbcast.ProcessID { return c.cl.ID() }

// Shard returns the shard that owns key (HashPartitioner).
func (c *Client) Shard(key []byte) int { return HashPartitioner{}.Shard(key, c.shards) }

// Get reads key, reporting its value and whether it existed.
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	res, err := c.do(ctx, Op{Kind: OpGet, Key: key}, 0)
	if err != nil {
		return nil, false, err
	}
	return res[0].Val, res[0].Found, nil
}

// Put writes val under key.
func (c *Client) Put(ctx context.Context, key, val []byte) error {
	_, err := c.do(ctx, Op{Kind: OpPut, Key: key, Val: val}, 1)
	return err
}

// Delete removes key, reporting whether it existed.
func (c *Client) Delete(ctx context.Context, key []byte) (bool, error) {
	res, err := c.do(ctx, Op{Kind: OpDelete, Key: key}, 2)
	if err != nil {
		return false, err
	}
	return res[0].Found, nil
}

// Txn applies ops — single-key Get/Put/Delete operations — atomically:
// the transaction is multicast to exactly the shards its keys map to and
// occupies one position of the global delivery order, so every shard
// applies it against the same prefix and no other operation interleaves.
// Results are positional: Results[i] is the outcome of ops[i].
func (c *Client) Txn(ctx context.Context, ops ...Op) ([]OpResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("kv: empty transaction")
	}
	for i, op := range ops {
		if op.Kind != OpGet && op.Kind != OpPut && op.Kind != OpDelete {
			return nil, fmt.Errorf("kv: transaction op %d has kind %v; want a single-key operation", i, op.Kind)
		}
	}
	return c.do(ctx, Op{Kind: OpTxn, Subs: ops}, 3)
}

// do multicasts one operation to the shards its keys map to and waits for
// every addressed shard's application result. counter indexes ops.
func (c *Client) do(ctx context.Context, op Op, counter int) ([]OpResult, error) {
	flat := op.Flatten()
	var groups []wbcast.GroupID
	for _, sub := range flat {
		g := wbcast.GroupID(c.Shard(sub.Key))
		seen := false
		for _, have := range groups {
			if have == g {
				seen = true
				break
			}
		}
		if !seen {
			groups = append(groups, g)
		}
	}
	dest := wbcast.NewGroupSet(groups...)

	start := time.Now()
	id, _, err := c.cl.MulticastAsync(kvstore.EncodeOp(nil, op), groups...)
	if err != nil {
		return nil, err
	}
	// Registration races the deliveries: an engine may respond before the
	// hub knows the call. The hub's pending buffer absorbs that window.
	call := c.hub.register(id, dest)
	select {
	case <-call.done:
	case <-ctx.Done():
		c.hub.cancel(id)
		return nil, ctx.Err()
	}
	if len(dest) > 1 {
		c.latMulti.Observe(time.Since(start))
	} else {
		c.latSingle.Observe(time.Since(start))
	}
	c.ops[counter].Inc()
	return call.merge(dest, len(flat)), nil
}

// Metrics snapshots the client's kv_* metrics (operation counts and
// latency histograms split by destination-set size).
func (c *Client) Metrics() wbcast.MetricsSnapshot { return c.reg.Snapshot() }

// MetricsSource exposes the client's metrics for ServeMetrics.
func (c *Client) MetricsSource() wbcast.MetricsSource { return wbcast.NewAppSource(c.reg) }

// Close crash-stops the underlying multicast client.
func (c *Client) Close() { c.cl.Close() }
