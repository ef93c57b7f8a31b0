package tcpnet_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"wbcast/internal/client"
	"wbcast/internal/core"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/tcpnet"
)

// TestWhiteBoxOverTCP runs a full white-box cluster (2 groups × 3 replicas)
// plus one client as seven real TCP servers on loopback, multicasts
// messages and verifies delivery counts and per-group agreement.
func TestWhiteBoxOverTCP(t *testing.T) {
	top := mcast.UniformTopology(2, 3)
	const clientPID = mcast.ProcessID(6)

	var nodes []*tcpnet.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	var mu sync.Mutex
	delivered := make(map[mcast.ProcessID][]mcast.Delivery)

	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		r, err := core.NewReplica(core.DefaultConfig(pid, top, 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		p := pid
		n, err := tcpnet.Serve(tcpnet.Config{
			PID:        pid,
			ListenAddr: "127.0.0.1:0",
			Handler:    r,
			OnDeliver: func(d mcast.Delivery) {
				mu.Lock()
				delivered[p] = append(delivered[p], d)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}

	const numMsgs = 20
	done := make(chan mcast.MsgID, numMsgs)
	cl := client.New(client.Config{
		PID: clientPID,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID {
			return []mcast.ProcessID{top.InitialLeader(g)}
		},
		Retry:         300 * time.Millisecond,
		RetryContacts: func(g mcast.GroupID) []mcast.ProcessID { return top.Members(g) },
		OnComplete:    func(id mcast.MsgID) { done <- id },
	})
	cn, err := tcpnet.Serve(tcpnet.Config{
		PID:        clientPID,
		ListenAddr: "127.0.0.1:0",
		Handler:    cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, cn)
	// Nodes listened on port 0; distribute the bound addresses through the
	// race-free SetPeer registration (peers are dialled lazily, so the
	// book just has to be complete before traffic flows).
	sharePeerAddrs(nodes, clientPID)

	dests := []mcast.GroupSet{mcast.NewGroupSet(0), mcast.NewGroupSet(1), mcast.NewGroupSet(0, 1)}
	for i := 0; i < numMsgs; i++ {
		m := mcast.AppMsg{
			ID:      mcast.MakeMsgID(clientPID, uint32(i+1)),
			Dest:    dests[i%3],
			Payload: []byte(fmt.Sprintf("tcp-%d", i)),
		}
		if err := cn.Inject(node.Submit{Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < numMsgs; i++ {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out after %d completions", i)
		}
	}
	time.Sleep(200 * time.Millisecond) // let followers drain

	mu.Lock()
	defer mu.Unlock()
	for g := mcast.GroupID(0); g < 2; g++ {
		members := top.Members(g)
		ref := delivered[members[0]]
		if len(ref) == 0 {
			t.Fatalf("group %d leader delivered nothing", g)
		}
		for _, p := range members[1:] {
			got := delivered[p]
			if len(got) != len(ref) {
				t.Errorf("group %d: replica %d delivered %d, leader %d", g, p, len(got), len(ref))
				continue
			}
			for i := range ref {
				if got[i].Msg.ID != ref[i].Msg.ID {
					t.Errorf("group %d: replica %d diverges at %d", g, p, i)
					break
				}
			}
		}
	}
}

// TestPerLinkFIFOOverTCP runs an answering process (pid 1) and a driver
// (pid 3) as two nodes over real TCP. The driver pings; the answerer acks
// every ping and follows every tenth ack with a non-ack echo, so acks and
// other frames interleave on its one link to the driver. The driver must see
// them in the order the answerer sent them (per-link FIFO), and every
// message must have cost one encode and one frame.
func TestPerLinkFIFOOverTCP(t *testing.T) {
	const numPings, echoEvery = 200, 10
	const total = numPings + numPings/echoEvery

	var mu sync.Mutex
	var got []msgs.Message // what the driver received, in order
	allIn := make(chan struct{})

	answerer := node.Func{PID: 1, F: func(in node.Input, fx *node.Effects) {
		rcv, ok := in.(node.Recv)
		if !ok {
			return
		}
		hb := rcv.Msg.(msgs.Heartbeat)
		fx.Send(rcv.From, msgs.HeartbeatAck{Group: hb.Group, Bal: hb.Bal})
		if hb.Bal.N%echoEvery == echoEvery-1 {
			fx.Send(rcv.From, msgs.Heartbeat{Group: 9, Bal: hb.Bal})
		}
	}}
	an, err := tcpnet.Serve(tcpnet.Config{PID: 1, ListenAddr: "127.0.0.1:0", Handler: answerer})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()

	driver := node.Func{PID: 3, F: func(in node.Input, fx *node.Effects) {
		switch in := in.(type) {
		case node.Submit:
			for i := 0; i < numPings; i++ {
				fx.Send(1, msgs.Heartbeat{Group: 0, Bal: mcast.Ballot{N: uint64(i), Proc: 3}})
			}
		case node.Recv:
			mu.Lock()
			if got = append(got, in.Msg); len(got) == total {
				close(allIn)
			}
			mu.Unlock()
		}
	}}
	dn, err := tcpnet.Serve(tcpnet.Config{PID: 3, ListenAddr: "127.0.0.1:0", Handler: driver})
	if err != nil {
		t.Fatal(err)
	}
	defer dn.Close()
	dn.SetPeer(1, an.Addr().String())
	an.SetPeer(3, dn.Addr().String())

	if err := dn.Inject(node.Submit{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-allIn:
	case <-time.After(20 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("timed out after %d of %d messages", n, total)
	}

	mu.Lock()
	defer mu.Unlock()
	var want []msgs.Message
	for i := uint64(0); i < numPings; i++ {
		bal := mcast.Ballot{N: i, Proc: 3}
		want = append(want, msgs.HeartbeatAck{Group: 0, Bal: bal})
		if i%echoEvery == echoEvery-1 {
			want = append(want, msgs.Heartbeat{Group: 9, Bal: bal})
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("message %d arrived as %+v, want %+v: per-link FIFO broken", i, got[i], want[i])
		}
	}
	if st := an.Stats(); st.MessagesEncoded != total || st.FramesSent != total {
		t.Errorf("the answerer encoded %d messages into %d frames for %d sends, want one each", st.MessagesEncoded, st.FramesSent, total)
	}
	if st := dn.Stats(); st.FramesRead != total {
		t.Errorf("the driver read %d frames for %d messages", st.FramesRead, total)
	}
}

// sharePeerAddrs registers every node's bound address with every other
// node. Node i < len(nodes)-1 is replica i; the last node is the client.
func sharePeerAddrs(nodes []*tcpnet.Node, clientPID mcast.ProcessID) {
	pidOf := func(i int) mcast.ProcessID {
		if i == len(nodes)-1 {
			return clientPID
		}
		return mcast.ProcessID(i)
	}
	for i, n := range nodes {
		for j, m := range nodes {
			if i != j {
				n.SetPeer(pidOf(j), m.Addr().String())
			}
		}
	}
}

// gatedClient blocks its loop on a GCHorizon input until the test opens the
// gate, so that what the test injects meanwhile is consumed in one drain.
type gatedClient struct {
	*client.Client
	gate chan struct{}
}

func (g gatedClient) Handle(in node.Input, fx *node.Effects) {
	if _, ok := in.(node.GCHorizon); ok {
		<-g.gate
		return
	}
	g.Client.Handle(in, fx)
}

// TestBatchedClientOverTCP runs a white-box cluster over real TCP with a
// burst of concurrent submissions queued behind the client's gated loop:
// the drain that consumes them sends one batch envelope, which must survive
// the wire (frame encoding, write coalescing) and unpack into per-payload
// deliveries in the envelope's order at every replica.
func TestBatchedClientOverTCP(t *testing.T) {
	top := mcast.UniformTopology(2, 3)
	const clientPID = mcast.ProcessID(6)

	var nodes []*tcpnet.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	var mu sync.Mutex
	delivered := make(map[mcast.ProcessID][]mcast.Delivery)

	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		r, err := core.NewReplica(core.DefaultConfig(pid, top, 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		p := pid
		n, err := tcpnet.Serve(tcpnet.Config{
			PID:        pid,
			ListenAddr: "127.0.0.1:0",
			Handler:    r,
			OnDeliver: func(d mcast.Delivery) {
				mu.Lock()
				delivered[p] = append(delivered[p], d)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}

	const submitters, perSubmitter = 4, 6
	const numMsgs = submitters * perSubmitter
	done := make(chan mcast.MsgID, numMsgs)
	cl := gatedClient{Client: client.New(client.Config{
		PID: clientPID,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID {
			return []mcast.ProcessID{top.InitialLeader(g)}
		},
		Retry:         300 * time.Millisecond,
		RetryContacts: func(g mcast.GroupID) []mcast.ProcessID { return top.Members(g) },
		OnComplete:    func(id mcast.MsgID) { done <- id },
	}), gate: make(chan struct{})}
	cn, err := tcpnet.Serve(tcpnet.Config{
		PID:        clientPID,
		ListenAddr: "127.0.0.1:0",
		Handler:    cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, cn)
	sharePeerAddrs(nodes, clientPID)

	if err := cn.Inject(node.GCHorizon{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				m := mcast.AppMsg{
					ID:      mcast.MakeMsgID(clientPID, uint32(w*perSubmitter+j+1)),
					Dest:    mcast.NewGroupSet(0, 1),
					Payload: []byte(fmt.Sprintf("tcp-batched-%d-%d", w, j)),
				}
				if err := cn.Inject(node.Submit{Msg: m}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	cl.gate <- struct{}{}
	completed := make(map[mcast.MsgID]bool)
	for i := 0; i < numMsgs; i++ {
		select {
		case id := <-done:
			completed[id] = true
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out after %d completions", i)
		}
	}
	if len(completed) != numMsgs {
		t.Errorf("%d distinct payloads completed, want %d", len(completed), numMsgs)
	}
	if n := cl.BatchesSent(); n != 1 {
		t.Errorf("one drain of %d payloads left as %d multicasts, want one envelope", numMsgs, n)
	}
	time.Sleep(200 * time.Millisecond) // let followers drain

	mu.Lock()
	defer mu.Unlock()
	ref := delivered[0]
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		ds := delivered[pid]
		if len(ds) != numMsgs {
			t.Fatalf("replica %d delivered %d payloads, want %d", pid, len(ds), numMsgs)
		}
		for i, d := range ds {
			if mcast.IsBatchID(d.Msg.ID) || !completed[d.Msg.ID] {
				t.Fatalf("replica %d delivered %v, not a submitted payload", pid, d.Msg.ID)
			}
			if d.Msg.ID != ref[i].Msg.ID || d.Sub != i || d.GTS != ref[0].GTS {
				t.Errorf("replica %d: delivery %d = %v at (%v, %d), want %v at (%v, %d): one envelope, its order", pid, i, d.Msg.ID, d.GTS, d.Sub, ref[i].Msg.ID, ref[0].GTS, i)
			}
		}
	}
}

// TestReadySubmittersShareADrain: at GOMAXPROCS 1, eight goroutines released
// at once each submit one multicast to the same destination set. Each post
// wakes the client's loop ahead of the submitters still to run. The first
// submission leaves alone: with nothing else in flight the client does not
// yield (client.Client.Gather). From the second on it does, before the end
// of the drain, and the rest post into that drain — so the eight leave in
// fewer MULTICASTs than eight.
func TestReadySubmittersShareADrain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	top := mcast.UniformTopology(1, 3)
	const clientPID = mcast.ProcessID(3)
	const submitters = 8
	var nodes []*tcpnet.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		r, err := core.NewReplica(core.DefaultConfig(pid, top, 50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		n, err := tcpnet.Serve(tcpnet.Config{PID: pid, ListenAddr: "127.0.0.1:0", Handler: r})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	done := make(chan mcast.MsgID, submitters)
	cl := client.New(client.Config{
		PID:        clientPID,
		Contacts:   func(g mcast.GroupID) []mcast.ProcessID { return []mcast.ProcessID{top.InitialLeader(g)} },
		Retry:      2500 * time.Millisecond,
		OnComplete: func(id mcast.MsgID) { done <- id },
	})
	cn, err := tcpnet.Serve(tcpnet.Config{PID: clientPID, ListenAddr: "127.0.0.1:0", Handler: cl})
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, cn)
	sharePeerAddrs(nodes, clientPID)

	release := make(chan struct{})
	for i := 1; i <= submitters; i++ {
		m := mcast.AppMsg{ID: mcast.MakeMsgID(clientPID, uint32(i)), Dest: mcast.NewGroupSet(0), Payload: []byte("x")}
		go func() {
			<-release
			if err := cn.Inject(node.Submit{Msg: m}); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // all eight wait on release
	close(release)
	for i := 0; i < submitters; i++ {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out after %d of %d completions", i, submitters)
		}
	}
	if n := cl.BatchesSent(); n >= submitters {
		t.Errorf("%d ready submitters left in %d multicasts, want fewer", submitters, n)
	} else {
		t.Logf("%d ready submitters left in %d multicasts", submitters, n)
	}
}

// TestFramesPerMulticast pins the frame count of the hot path over real TCP:
// one group of three, 200 single-group multicasts, each submitted once the
// previous one is delivered everywhere (so no two share an ACK_BATCH). Each
// costs the replicas 2 ACCEPT + 2 ACCEPT_ACK + 2 DELIVER frames and the
// leader's one reply — 7; the followers' replies ride in one CLIENT_REPLIES
// per heartbeat interval, which with δ = 50ms is a handful of frames over
// the whole run, like the heartbeats themselves. With a reply per replica
// it was 9, so the bound sits at 8.
func TestFramesPerMulticast(t *testing.T) {
	top := mcast.UniformTopology(1, 3)
	const clientPID = mcast.ProcessID(3)
	const numMsgs = 200
	var nodes []*tcpnet.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	// One event per delivery at a replica and per completion at the client.
	events := make(chan mcast.MsgID, top.NumReplicas()+1)
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		r, err := core.NewReplica(core.DefaultConfig(pid, top, 50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		n, err := tcpnet.Serve(tcpnet.Config{
			PID: pid, ListenAddr: "127.0.0.1:0", Handler: r,
			OnDeliver: func(d mcast.Delivery) { events <- d.Msg.ID },
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	cl := client.New(client.Config{
		PID:        clientPID,
		Contacts:   func(g mcast.GroupID) []mcast.ProcessID { return []mcast.ProcessID{top.InitialLeader(g)} },
		Retry:      2500 * time.Millisecond, // 50δ, as wbcast.NewClient derives it
		OnComplete: func(id mcast.MsgID) { events <- id },
	})
	cn, err := tcpnet.Serve(tcpnet.Config{PID: clientPID, ListenAddr: "127.0.0.1:0", Handler: cl})
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, cn)
	sharePeerAddrs(nodes, clientPID)

	for i := 1; i <= numMsgs; i++ {
		m := mcast.AppMsg{ID: mcast.MakeMsgID(clientPID, uint32(i)), Dest: mcast.NewGroupSet(0), Payload: []byte("x")}
		if err := cn.Inject(node.Submit{Msg: m}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < cap(events); k++ {
			select {
			case id := <-events:
				if id != m.ID {
					t.Fatalf("multicast %d: event for %v", i, id)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("multicast %d: %d of %d deliveries and completions", i, k, cap(events))
			}
		}
	}
	var frames int64
	for _, n := range nodes[:top.NumReplicas()] {
		frames += n.Stats().FramesSent
	}
	if perOp := float64(frames) / numMsgs; perOp >= 8 {
		t.Errorf("replicas sent %.2f frames per multicast, want under 8", perOp)
	} else {
		t.Logf("replicas sent %.2f frames per multicast", perOp)
	}
	// The client only ever sends MULTICAST: one message each means it never
	// had to retransmit.
	if sent := cn.Stats().MessagesEncoded; sent != numMsgs {
		t.Errorf("client sent %d messages for %d multicasts", sent, numMsgs)
	}
}
