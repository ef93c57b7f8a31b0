package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"wbcast"
	"wbcast/internal/obs"
	"wbcast/kv"
)

// publicStack is one kv workload set up on the public API: wbcast.New on
// TCP loopback, kv.NewService, and numClients kv clients. Nothing wraps the
// program under test except kv-durable's sync-cost decorator.
type publicStack struct {
	cluster *wbcast.Cluster
	svc     *kv.Service
	clients []*kv.Client
	wl      *kv.Workload
	walC    *walCounters
	dir     string // WAL directory of this stack; "" when volatile
}

// setupPublic builds the stack of spec and commits one operation through
// every client, so dialling and first-use costs are part of set-up and not
// of the window. It returns how long that took.
func setupPublic(spec kvSpec, dataDir string, recordApplied bool) (*publicStack, time.Duration, error) {
	t0 := time.Now()
	wl, err := newWorkload(spec)
	if err != nil {
		return nil, 0, err
	}
	st := &publicStack{wl: wl, walC: &walCounters{}}
	peers := make(map[wbcast.ProcessID]string)
	for pid := 0; pid < numGroups*numReplicas+numClients; pid++ {
		peers[wbcast.ProcessID(pid)] = "127.0.0.1:0"
	}
	cfg := wbcast.Config{
		Protocol:  wbcast.WhiteBox,
		Groups:    numGroups,
		Replicas:  numReplicas,
		Delta:     delta,
		Transport: wbcast.TCP("", peers),
	}
	if spec.durable {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, 0, err
		}
		if st.dir, err = os.MkdirTemp(dataDir, "wal-"); err != nil {
			return nil, 0, err
		}
		cfg.AppGCHorizon = true
		cfg.Storage = func(pid wbcast.ProcessID) (wbcast.Storage, error) {
			return openCostStore(st.dir, pid, st.walC)
		}
	}
	if st.cluster, err = wbcast.New(cfg); err != nil {
		st.close()
		return nil, 0, err
	}
	st.svc, err = kv.NewService(st.cluster, kv.Options{Persist: spec.durable, RecordApplied: recordApplied})
	if err != nil {
		st.close()
		return nil, 0, err
	}
	for i := 0; i < numClients; i++ {
		c, err := st.svc.NewClient()
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.clients = append(st.clients, c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	for i, d := range st.doers() {
		if err := d.do(ctx, newOpSource(wl, 0, i).next()); err != nil {
			st.close()
			return nil, 0, fmt.Errorf("first operation of client %d: %w", i, err)
		}
	}
	return st, time.Since(t0), nil
}

func (st *publicStack) doers() []doer {
	ds := make([]doer, len(st.clients))
	for i, c := range st.clients {
		ds[i] = publicDoer{c}
	}
	return ds
}

// close tears the stack down and removes its WAL directory. Closing twice
// is harmless.
func (st *publicStack) close() {
	for _, c := range st.clients {
		c.Close()
	}
	if st.svc != nil {
		st.svc.Close()
	}
	if st.cluster != nil {
		st.cluster.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
	*st = publicStack{wl: st.wl}
}

// shardState is what the replicas of one shard must agree on once traffic
// has stopped.
type shardState struct {
	digest  uint64
	gts     wbcast.Timestamp
	sub     int
	applied uint64
}

// gate is the correctness check of every kv run: after the callers have
// stopped, the three replicas of each shard must reach the same digest,
// frontier and applied count, and no engine may have failed. Followers
// trail their leader by a DELIVER message, so the gate polls briefly.
func gate(states func() (map[int][]shardState, error)) error {
	deadline := time.Now().Add(opDeadline)
	for {
		byShard, err := states()
		if err != nil {
			return err
		}
		agreed := true
		var diverged string
		for g, reps := range byShard {
			for _, r := range reps[1:] {
				if r != reps[0] {
					agreed = false
					diverged = fmt.Sprintf("shard %d: replicas disagree: %+v vs %+v", g, reps[0], r)
				}
			}
			if reps[0].applied == 0 {
				agreed = false
				diverged = fmt.Sprintf("shard %d applied nothing", g)
			}
		}
		if agreed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge: %s", diverged)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (st *publicStack) gate() error {
	return gate(func() (map[int][]shardState, error) {
		if err := st.svc.Err(); err != nil {
			return nil, err
		}
		byShard := make(map[int][]shardState)
		for _, sh := range st.svc.Replicas() {
			gts, sub := sh.Frontier()
			applied, _, _ := sh.Counters()
			g := int(sh.Group())
			byShard[g] = append(byShard[g], shardState{digest: sh.Digest(), gts: gts, sub: sub, applied: applied})
		}
		return byShard, nil
	})
}

// netSnapshot sums the replicas' transport counters, read through the
// public Stats and Metrics views.
type netSnapshot struct {
	encoded, frames  int64
	ackSum           time.Duration // 1 ack = 1s, see obs.MetricAckBatchSize
	ackFlushes       uint64
	mailboxHighWater int64
	retransmits      int64 // leader-side MULTICAST re-sends
}

func (st *publicStack) netSnapshot() netSnapshot {
	var s netSnapshot
	for _, r := range st.cluster.Replicas() {
		ts := r.Stats()
		s.encoded += ts.MessagesEncoded
		s.frames += ts.FramesSent
		if ts.MailboxHighWater > s.mailboxHighWater {
			s.mailboxHighWater = ts.MailboxHighWater
		}
	}
	m := st.cluster.Metrics()
	ack := m.Latencies[obs.MetricAckBatchSize]
	s.ackSum, s.ackFlushes = ack.Sum, ack.Count
	s.retransmits = m.Counters[obs.MetricRetransmits]
	return s
}
