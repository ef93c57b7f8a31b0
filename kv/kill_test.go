package kv

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wbcast"
	"wbcast/internal/wal"
)

// Crash-recovery of a kv shard replica, end to end: one replica of shard 1
// runs as a real child OS process with a disk-backed WAL and a kv shard
// engine attached. The parent SIGKILLs it mid-load, keeps writing while it
// is down, restarts it on the same data directory, and then requires the
// restarted engine to converge to the exact state digest of its shard
// peers — proving the store recovered through the app snapshot + app log
// + protocol replay path rather than from scratch. It logs how long the
// restarted victim took to serve.

const (
	kvHelperEnv   = "WBCAST_KV_HELPER"
	kvHelperPID   = "WBCAST_KV_HELPER_PID"
	kvHelperDir   = "WBCAST_KV_HELPER_DATADIR"
	kvHelperPeer  = "WBCAST_KV_HELPER_PEERS"
	kvHelperState = "WBCAST_KV_HELPER_STATE"

	kvKillShards   = 2
	kvKillReplicas = 3
	kvKillVictim   = wbcast.ProcessID(5) // a follower of shard 1
)

func kvKillConfig(peers map[wbcast.ProcessID]string) wbcast.Config {
	return wbcast.Config{
		Groups:    kvKillShards,
		Replicas:  kvKillReplicas,
		Delta:     2 * time.Millisecond,
		Transport: wbcast.TCP("", peers),
		// GC-pruned protocol records cannot be replayed to the engine, so
		// pruning waits for the engine's durability horizon: a shard
		// engine with Persist raises it after every logged apply, and
		// nothing is pruned above it (docs/KVSTORE.md discusses the trade).
		AppGCHorizon: true,
	}
}

// TestHelperKVShard is not a test: it is the victim's main function, run
// as a child process by TestKVKillRecovery. It hosts one disk-backed
// replica with a kv shard engine attached and serves the engine's digest,
// counters and frontier, and what its store was handed, over HTTP for the
// parent to poll. It never returns — the parent SIGKILLs it.
func TestHelperKVShard(t *testing.T) {
	if os.Getenv(kvHelperEnv) != "1" {
		t.Skip("helper process for TestKVKillRecovery")
	}
	pidN, err := strconv.Atoi(os.Getenv(kvHelperPID))
	if err != nil {
		fmt.Fprintf(os.Stderr, "kv helper: bad pid: %v\n", err)
		os.Exit(2)
	}
	peers := make(map[wbcast.ProcessID]string)
	for _, ent := range strings.Split(os.Getenv(kvHelperPeer), ";") {
		parts := strings.SplitN(ent, "=", 2)
		p, err := strconv.Atoi(parts[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "kv helper: bad peers entry %q\n", ent)
			os.Exit(2)
		}
		peers[wbcast.ProcessID(p)] = parts[1]
	}
	cfg := kvKillConfig(peers)
	var store countingStore
	cfg.Storage = store.wrap(wbcast.DirStorage(os.Getenv(kvHelperDir)))
	rep, err := wbcast.NewReplica(cfg, wbcast.ProcessID(pidN))
	if err != nil {
		fmt.Fprintf(os.Stderr, "kv helper: %v\n", err)
		os.Exit(1)
	}
	shard, err := attachShard(rep, kvKillShards, Options{Persist: true}, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kv helper: attach: %v\n", err)
		os.Exit(1)
	}
	http.HandleFunc("/state", func(w http.ResponseWriter, _ *http.Request) {
		applied, replayed, dups := shard.Counters()
		gts, sub := shard.Frontier()
		recs, tail, tailBytes, snapBytes := store.counts()
		fmt.Fprintf(w, "%d %d %d %d %d %d %d %d %d %d %d\n",
			shard.Digest(), applied, replayed, dups, shard.Len(), gts.Time, sub, recs, tail, tailBytes, snapBytes)
	})
	if err := http.ListenAndServe(os.Getenv(kvHelperState), nil); err != nil {
		fmt.Fprintf(os.Stderr, "kv helper: state server: %v\n", err)
		os.Exit(1)
	}
}

// kvHelperState is the parsed /state response of the victim.
type kvState struct {
	digest                  uint64
	applied, replayed, dups uint64
	keys                    int
	frontierTime            uint64
	frontierSub             int
	// What the store was handed: app records in all, and those since the
	// last app snapshot, with their bytes and the snapshot's.
	recs, tail, tailBytes, snapBytes int
}

func pollKVState(addr string) (kvState, error) {
	resp, err := http.Get("http://" + addr + "/state")
	if err != nil {
		return kvState{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return kvState{}, err
	}
	var s kvState
	_, err = fmt.Sscanf(string(body), "%d %d %d %d %d %d %d %d %d %d %d",
		&s.digest, &s.applied, &s.replayed, &s.dups, &s.keys, &s.frontierTime, &s.frontierSub,
		&s.recs, &s.tail, &s.tailBytes, &s.snapBytes)
	return s, err
}

// kvReserveAddrs picks n distinct loopback ports that parent and child agree
// on as a fixed address book. A port in the kernel's ephemeral range
// (ip_local_port_range) is what the kernel hands to every bind to port 0
// and every outbound connection on the host, so while the victim is down a
// test package running in parallel — its listeners, its dials — can take
// it and hold it for the rest of its run. So on Linux the ports come from
// the band just below that range, scanned from a random start, each kept
// once a probe listen accepts it. Where the range cannot be read, the
// kernel picks them (port 0).
func kvReserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	const band = 4096
	low := 0
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			low, _ = strconv.Atoi(f[0])
		}
	}
	var addrs []string
	if low > band+1024 {
		start := rand.Intn(band)
		for i := 0; i < band && len(addrs) < n; i++ {
			if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", low-band+(start+i)%band)); err == nil {
				addrs = append(addrs, ln.Addr().String())
				ln.Close()
			}
		}
	}
	for len(addrs) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
	}
	return addrs
}

func TestKVKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child OS processes")
	}
	dataDir := t.TempDir()
	// Address book: 6 replicas + 1 client + 1 helper state endpoint, all
	// pinned so the victim's address survives its restart.
	const procs = kvKillShards * kvKillReplicas
	addrs := kvReserveAddrs(t, procs+2)
	peers := make(map[wbcast.ProcessID]string)
	for pid := 0; pid <= procs; pid++ {
		peers[wbcast.ProcessID(pid)] = addrs[pid]
	}
	stateAddr := addrs[procs+1]
	var peerParts []string
	for pid := 0; pid <= procs; pid++ {
		peerParts = append(peerParts, fmt.Sprintf("%d=%s", pid, peers[wbcast.ProcessID(pid)]))
	}
	env := append(os.Environ(),
		kvHelperEnv+"=1",
		fmt.Sprintf("%s=%d", kvHelperPID, kvKillVictim),
		kvHelperDir+"="+dataDir,
		kvHelperPeer+"="+strings.Join(peerParts, ";"),
		kvHelperState+"="+stateAddr,
	)
	startVictim := func() (*victim, time.Duration) {
		t.Helper()
		return startServing(t, "^TestHelperKVShard$", env, func() bool {
			_, err := pollKVState(stateAddr)
			return err == nil
		})
	}

	// The parent hosts the other five replicas (volatile) with their shard
	// engines, one response hub, and the kv client.
	cfg := kvKillConfig(peers)
	h := newHub()
	var shard1Peer *Shard
	for pid := wbcast.ProcessID(0); pid < kvKillVictim; pid++ {
		r, err := wbcast.NewReplica(cfg, pid)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		sh, err := attachShard(r, kvKillShards, Options{}, h.dispatch)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		if sh.Group() == 1 {
			shard1Peer = sh
		}
	}
	defer cfg.Transport.Close()
	wcl, err := wbcast.NewClient(cfg, wbcast.ProcessID(procs))
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(wcl, kvKillShards, h)

	first, _ := startVictim()
	defer first.kill()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// shardKeys returns n distinct keys owned by the given shard.
	shardKeys := func(shard, n int, prefix string) [][]byte {
		var keys [][]byte
		for i := 0; len(keys) < n; i++ {
			k := []byte(fmt.Sprintf("%s-%d", prefix, i))
			if client.Shard(k) == shard {
				keys = append(keys, k)
			}
		}
		return keys
	}
	putAll := func(keys [][]byte, val string) {
		t.Helper()
		for _, k := range keys {
			if err := client.Put(ctx, k, []byte(val)); err != nil {
				t.Fatalf("put %s: %v", k, err)
			}
		}
	}
	waitVictim := func(cond func(kvState) bool, what string) kvState {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		var last kvState
		for time.Now().Before(deadline) {
			if s, err := pollKVState(stateAddr); err == nil {
				last = s
				if cond(s) {
					return s
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for victim %s (last state %+v)", what, last)
		return kvState{}
	}

	// Phase 1: shard-1 writes and a cross-shard transaction, all applied by
	// the victim. Its engine saves an app snapshot whenever its app log has
	// reached the last one's length, from the first write on.
	pre := shardKeys(1, 10, "pre")
	putAll(pre, "v1")
	k0, k1 := shardKeys(0, 1, "txa")[0], shardKeys(1, 1, "txb")[0]
	if _, err := client.Txn(ctx, Op{Kind: OpPut, Key: k0, Val: []byte("t0")}, Op{Kind: OpPut, Key: k1, Val: []byte("t1")}); err != nil {
		t.Fatal(err)
	}
	// How the load fell into batches decides whether the victim's last write
	// was an app snapshot. Once its store holds the record of every applied
	// operation, records behind a snapshot and shorter than it mean that
	// none is pending. Until then, one more write: a record shorter than the
	// snapshot leaves the snapshot in place, so two are enough.
	applied := uint64(11)
	for tail := 0; ; tail++ {
		s := waitVictim(func(s kvState) bool {
			return s.applied >= applied && uint64(s.recs) == s.applied
		}, "to log what it applied")
		if s.snapBytes > 0 && s.tail > 0 && s.tailBytes < s.snapBytes {
			break
		}
		if tail == 3 {
			t.Fatalf("the victim's store never ended with app records behind an app snapshot: %+v", s)
		}
		putAll(shardKeys(1, 1, fmt.Sprintf("tail%d", tail)), "v1")
		applied = s.applied + 1
	}
	walPath := filepath.Join(dataDir, fmt.Sprintf("p%d", kvKillVictim), "wal")

	if err := first.kill(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("victim left no WAL to recover from (err=%v)", err)
	}

	// Phase 2: writes while the victim is down; shard 1 still has quorum.
	down := shardKeys(1, 5, "down")
	putAll(down, "v2")
	if _, err := client.Delete(ctx, pre[0]); err != nil {
		t.Fatal(err)
	}

	// Phase 3: restart on the same data directory. The new incarnation
	// must fold snapshot + app log, re-apply the protocol replay, catch
	// up on the missed writes, and converge to its peers' digest.
	second, served := startVictim()
	defer second.kill()
	t.Logf("the restarted victim served %v after it was started", served.Round(time.Millisecond))
	post := shardKeys(1, 3, "post")
	putAll(post, "v3")

	// putAll returned on the first shard-1 reply, so the peer may still be
	// applying the last write: digest and frontier must match in one poll,
	// or a digest matched at an intermediate state meets a later frontier.
	var peerTime uint64
	var peerSub int
	final := waitVictim(func(s kvState) bool {
		gts, sub := shard1Peer.Frontier()
		peerTime, peerSub = gts.Time, sub
		return s.digest == shard1Peer.Digest() && s.frontierTime == peerTime && s.frontierSub == peerSub
	}, "digest and frontier to converge with its shard peer")
	if final.replayed == 0 {
		t.Error("restarted victim reports no replayed operations; recovery rebuilt nothing")
	}
	if final.keys == 0 {
		t.Error("restarted victim holds no keys")
	}
	if final.frontierTime != peerTime || final.frontierSub != peerSub {
		t.Errorf("victim frontier (%d,%d) behind peer (%d,%d) despite digest match",
			final.frontierTime, final.frontierSub, peerTime, peerSub)
	}

	// The recovered store serves the full history: pre-kill writes, the
	// cross-shard transaction, the delete and the catch-up writes.
	res, err := client.Txn(ctx, Op{Kind: OpGet, Key: pre[1]}, Op{Kind: OpGet, Key: k1}, Op{Kind: OpGet, Key: down[0]}, Op{Kind: OpGet, Key: post[0]})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"v1", "t1", "v2", "v3"} {
		if string(res[i].Val) != want {
			t.Errorf("recovered read %d = %q, want %q", i, res[i].Val, want)
		}
	}
	if _, found, err := client.Get(ctx, pre[0]); err != nil || found {
		t.Errorf("deleted key resurrected (found=%v err=%v)", found, err)
	}
}

// victim is a helper child process.
type victim struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer  // what it wrote to stderr; read it only once done is closed
	done   chan struct{} // closed once the process has exited and been reaped
	err    error         // its exit, once done is closed
}

// kill SIGKILLs the victim and reaps it. The error is Kill's: the victim
// had exited already.
func (v *victim) kill() error {
	err := v.cmd.Process.Kill()
	<-v.done
	return err
}

// startServing runs the test named by run as a child process with env, and
// waits until serving reports that it serves. Its pinned ports were only
// reserved (listened on and closed), so another process may have bound one
// meanwhile: a victim that exits with a bind error is started again, at
// most victimStarts times, 300 ms apart. It returns the victim and how long
// the start that succeeded took to serve.
func startServing(t *testing.T, run string, env []string, serving func() bool) (*victim, time.Duration) {
	t.Helper()
	const victimStarts = 10
starts:
	for try := 1; ; try++ {
		v := &victim{cmd: exec.Command(os.Args[0], "-test.run="+run, "-test.v"), done: make(chan struct{})}
		v.cmd.Env = env
		v.cmd.Stdout = io.Discard
		v.cmd.Stderr = io.MultiWriter(os.Stderr, &v.stderr)
		started := time.Now()
		if err := v.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() {
			v.err = v.cmd.Wait()
			close(v.done)
		}()
		for !serving() {
			select {
			case <-v.done:
				if try == victimStarts || !strings.Contains(v.stderr.String(), "address already in use") {
					t.Fatalf("start %d of the victim exited before it served: %v", try, v.err)
				}
				t.Logf("start %d of the victim lost a pinned port to another process (%v); starting it again", try, v.err)
				time.Sleep(300 * time.Millisecond)
				continue starts
			default:
			}
			if time.Since(started) > time.Minute {
				v.kill()
				t.Fatal("the victim does not serve a minute after it was started")
			}
			time.Sleep(time.Millisecond)
		}
		return v, time.Since(started)
	}
}

// countingStore counts the application entries a replica's store is
// handed, and holds its Append and Sync calls while a test copies it.
type countingStore struct {
	wbcast.Storage
	mu sync.Mutex
	// App records in all, and since the last app snapshot: how many, their
	// bytes, and the snapshot's.
	recs, tail, tailBytes, snapBytes int
}

// wrap makes s the store that open opens.
func (s *countingStore) wrap(open func(wbcast.ProcessID) (wbcast.Storage, error)) func(wbcast.ProcessID) (wbcast.Storage, error) {
	return func(pid wbcast.ProcessID) (wbcast.Storage, error) {
		st, err := open(pid)
		s.Storage = st
		return s, err
	}
}

func (s *countingStore) Append(entries ...wal.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		switch e.Kind {
		case wal.EntryApp:
			s.recs, s.tail, s.tailBytes = s.recs+1, s.tail+1, s.tailBytes+len(e.App)
		case wal.EntryAppSnapshot:
			s.tail, s.tailBytes, s.snapBytes = 0, 0, len(e.App)
		}
	}
	return s.Storage.Append(entries...)
}

func (s *countingStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Storage.Sync()
}

func (s *countingStore) counts() (recs, tail, tailBytes, snapBytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs, s.tail, s.tailBytes, s.snapBytes
}
