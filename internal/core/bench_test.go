package core_test

import (
	"testing"

	"wbcast/internal/core"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
)

// BenchmarkMulticast2x3 is the protocol alone: the six replicas of a 2 × 3
// white-box deployment driven through Handle with no runtime. Each
// iteration hands a pre-built MULTICAST addressed to both groups to each
// group's leader and routes the replicas' sends among them in FIFO order
// until none is left; replies to the client are dropped. ns/op and
// allocs/op are per multicast over all six replicas. Without timers nothing
// prunes the replicas' records, so every 1024 multicasts they are rebuilt
// off the clock.
func BenchmarkMulticast2x3(b *testing.B) {
	const round = 1024
	top := mcast.UniformTopology(2, 3)
	client := mcast.ProcessID(top.NumReplicas())
	dest := mcast.NewGroupSet(0, 1)
	payload := make([]byte, 64)
	ins := make([]msgs.Multicast, round)
	for i := range ins {
		ins[i] = msgs.Multicast{M: mcast.AppMsg{ID: mcast.MakeMsgID(client, uint32(i+1)), Dest: dest, Payload: payload}}
	}
	reps := make([]*core.Replica, top.NumReplicas())
	build := func() {
		for pid := range reps {
			r, err := core.NewReplica(core.Config{PID: mcast.ProcessID(pid), Top: top})
			if err != nil {
				b.Fatal(err)
			}
			reps[pid] = r
		}
	}
	type recv struct {
		to mcast.ProcessID
		in node.Recv
	}
	var queue []recv
	var fx node.Effects
	delivered := 0
	enqueue := func(from, to mcast.ProcessID, m msgs.Message) {
		if top.IsReplica(to) {
			queue = append(queue, recv{to, node.Recv{From: from, Msg: m}})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%round == 0 {
			b.StopTimer()
			build()
			b.StartTimer()
		}
		for _, g := range dest {
			enqueue(client, top.InitialLeader(g), ins[i%round])
		}
		for j := 0; j < len(queue); j++ {
			q := queue[j]
			fx.Reset()
			reps[q.to].Handle(q.in, &fx)
			delivered += len(fx.Deliveries)
			for _, s := range fx.Sends {
				if s.Tos == nil {
					enqueue(q.to, s.To, s.Msg)
				}
				for _, to := range s.Tos {
					enqueue(q.to, to, s.Msg)
				}
			}
		}
		queue = queue[:0]
	}
	if want := b.N * len(reps); delivered != want {
		b.Fatalf("%d deliveries, want %d", delivered, want)
	}
}
