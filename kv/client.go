package kv

import (
	"context"
	"fmt"
	"slices"
	"sync"
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
	routes *sync.Map // the Service's clients by ID; holds this one until Close

	// submit is held from MulticastAsync until the call is registered, so
	// calls register in message-ID order. mu is not held across
	// MulticastAsync: on the Simulated transport a submission waits for the
	// pump, which may wait for an engine that is waiting to answer.
	submit sync.Mutex
	mu     sync.Mutex
	calls  map[wbcast.MsgID]*call
	last   wbcast.MsgID   // the latest registered call
	early  []kvstore.Resp // responses that beat the registration in progress

	reg       *obs.Registry
	ops       [OpTxn + 1]obs.Counter // indexed by OpKind
	latSingle obs.Histogram
	latMulti  obs.Histogram
}

// call is one operation in flight: which shards have answered, by their
// position in dest, how many are still to answer, and the results so far,
// by position in the flattened operation.
type call struct {
	dest     wbcast.GroupSet
	answered []bool
	left     int
	results  []OpResult
	done     chan struct{}
}

// newClient wraps cl and adds it to routes.
func newClient(cl *wbcast.Client, shards int, routes *sync.Map) *Client {
	c := &Client{cl: cl, shards: shards, routes: routes, calls: make(map[wbcast.MsgID]*call)}
	c.reg = obs.NewRegistry(fmt.Sprintf(`proc="%d"`, cl.ID()))
	for k := OpGet; k <= OpTxn; k++ {
		c.reg.RegisterCounter(obs.MetricKVOps+`{op="`+k.String()+`"}`,
			"Key-value operations completed by this client.", &c.ops[k])
	}
	c.reg.RegisterHistogram(obs.MetricKVOpLatency+`{dests="single"}`,
		"Submit-to-complete latency of single-shard kv operations.", &c.latSingle)
	c.reg.RegisterHistogram(obs.MetricKVOpLatency+`{dests="multi"}`,
		"Submit-to-complete latency of multi-shard kv transactions.", &c.latMulti)
	routes.Store(cl.ID(), c)
	return c
}

// ID returns the client's multicast process ID.
func (c *Client) ID() wbcast.ProcessID { return c.cl.ID() }

// Shard returns the shard that owns key (HashPartitioner).
func (c *Client) Shard(key []byte) int { return HashPartitioner{}.Shard(key, c.shards) }

// Get reads key, reporting its value and whether it existed.
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	res, err := c.do(ctx, Op{Kind: OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return res[0].Val, res[0].Found, nil
}

// Put writes val under key.
func (c *Client) Put(ctx context.Context, key, val []byte) error {
	_, err := c.do(ctx, Op{Kind: OpPut, Key: key, Val: val})
	return err
}

// Delete removes key, reporting whether it existed.
func (c *Client) Delete(ctx context.Context, key []byte) (bool, error) {
	res, err := c.do(ctx, Op{Kind: OpDelete, Key: key})
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
	return c.do(ctx, Op{Kind: OpTxn, Subs: ops})
}

// do multicasts one operation to the shards its keys map to and waits for
// every addressed shard's application result. An operation whose ctx is
// done already is not submitted.
func (c *Client) do(ctx context.Context, op Op) ([]OpResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	flat := op.Flatten()
	groups := make([]wbcast.GroupID, len(flat))
	for i, sub := range flat {
		groups[i] = wbcast.GroupID(c.Shard(sub.Key))
	}
	dest := wbcast.NewGroupSet(groups...)

	start := time.Now()
	c.submit.Lock()
	id, _, err := c.cl.MulticastAsync(kvstore.EncodeOp(nil, op), dest...)
	if err != nil {
		c.submit.Unlock()
		return nil, err
	}
	call := c.register(id, dest, len(flat))
	c.submit.Unlock()
	select {
	case <-call.done:
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
	if len(dest) > 1 {
		c.latMulti.Observe(time.Since(start))
	} else {
		c.latSingle.Observe(time.Since(start))
	}
	c.ops[op.Kind].Inc()
	return call.results, nil
}

// register creates the waiter for id, the call just submitted with n
// flattened operations, and folds in the responses that arrived before it.
// Callers hold submit.
func (c *Client) register(id wbcast.MsgID, dest wbcast.GroupSet, n int) *call {
	cl := &call{dest: dest, answered: make([]bool, len(dest)), left: len(dest), results: make([]OpResult, n), done: make(chan struct{})}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = id
	c.calls[id] = cl
	for _, r := range c.early {
		if r.ID == id {
			c.foldLocked(cl, r)
		}
	}
	c.early = nil
	return cl
}

// answer takes one engine response to an operation of this client. Every
// replica of every addressed shard answers; the first response per shard
// counts. One that finds no call is late when its call is registered
// already (completed or cancelled), and is dropped; otherwise it belongs to
// the call being registered, which folds it in. Safe from any engine
// goroutine.
func (c *Client) answer(r kvstore.Resp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl := c.calls[r.ID]; cl != nil {
		c.foldLocked(cl, r)
	} else if r.ID > c.last {
		c.early = append(c.early, r)
	}
}

// foldLocked takes r's results unless its shard has answered, and completes
// the call with the last shard's answer. Position i of the results is
// answered by whichever shard owns its key. Callers hold mu.
func (c *Client) foldLocked(cl *call, r kvstore.Resp) {
	i := slices.Index(cl.dest, r.Group)
	if i < 0 || cl.answered[i] {
		return
	}
	cl.answered[i] = true
	for j, res := range r.Results {
		if res.Owned {
			cl.results[j] = res
		}
	}
	if cl.left--; cl.left == 0 {
		delete(c.calls, r.ID)
		close(cl.done)
	}
}

// Metrics snapshots the client's kv_* metrics (operation counts and
// latency histograms split by destination-set size).
func (c *Client) Metrics() wbcast.MetricsSnapshot { return c.reg.Snapshot() }

// MetricsSource exposes the client's metrics for ServeMetrics.
func (c *Client) MetricsSource() wbcast.MetricsSource { return wbcast.NewAppSource(c.reg) }

// Close removes the client from its Service's routing and crash-stops the
// underlying multicast client.
func (c *Client) Close() {
	c.routes.Delete(c.ID())
	c.cl.Close()
}
