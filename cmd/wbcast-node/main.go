// Command wbcast-node runs one process of a multicast deployment over TCP,
// built entirely on the public wbcast API: a TCP transport plus one
// NewReplica, or one NewClient.
//
// The cluster layout is given as an ordered address list: the first
// groups×size addresses are the replicas (group-major, so replica i belongs
// to group i/size); any further addresses are clients. Every process of the
// deployment must be started with the same -peers list. An -id in a replica
// slot runs that replica until SIGINT/SIGTERM; an -id in a later slot runs
// a client, which multicasts -count messages to the -dest groups, prints
// each one's completion latency (replies received from every destination
// group) and exits.
//
// Example — a 2-group × 3-replica cluster on one machine, and a client:
//
//	PEERS=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004,127.0.0.1:7005,127.0.0.1:7100
//	for i in 0 1 2 3 4 5; do
//	  wbcast-node -id $i -groups 2 -size 3 -peers $PEERS &
//	done
//	wbcast-node -id 6 -groups 2 -size 3 -peers $PEERS -dest 0,1 -count 10
//
// -id, -groups, -size, -peers, -listen, -protocol, -delta and -v apply to
// both. -data-dir, -metrics-addr apply to a replica only; -dest, -count,
// -payload and -timeout to a client only.
//
// With -data-dir the replica is durable: its ballot promises, accepted
// records and delivery frontier are synced to a write-ahead log under
// <data-dir>/p<id> before the corresponding messages leave the process, and
// restarting the node on the same directory recovers that state (see
// docs/DURABILITY.md). -protocol skeen takes no -data-dir: Skeen keeps no
// protocol state to recover, so wbcast.Config refuses a store for it.
//
// On shutdown (SIGINT/SIGTERM) a replica prints its transport statistics
// (messages encoded, frames sent/coalesced/read, outbound drops, reconnects
// and the mailbox high-water mark) and — with -data-dir — writes a final
// synced snapshot so the next start recovers without WAL replay.
//
// With -metrics-addr the replica also serves its observability endpoint:
// /metrics (Prometheus text), /debug/vars (expvar) and /debug/pprof/
// (profiling). See docs/OBSERVABILITY.md for the metric catalog.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wbcast"
)

func main() {
	var (
		id       = flag.Int("id", -1, "this process's ID (index into -peers): a replica slot, or a later client slot")
		groups   = flag.Int("groups", 2, "number of groups")
		size     = flag.Int("size", 3, "replicas per group (2f+1)")
		peersArg = flag.String("peers", "", "comma-separated addresses of all processes, replicas first")
		listen   = flag.String("listen", "", "bind address (defaults to this process's -peers entry)")
		protocol = flag.String("protocol", "wbcast", "protocol: wbcast, fastcast, ftskeen, skeen or genmcast")
		delta    = flag.Duration("delta", 5*time.Millisecond, "expected one-way network delay (drives timeouts)")
		verbose  = flag.Bool("v", false, "log deliveries and transport diagnostics")
		metrics  = flag.String("metrics-addr", "", "replica: serve /metrics, /debug/vars and /debug/pprof on this address")
		dataDir  = flag.String("data-dir", "", "replica: root directory for durable state (WAL + snapshots); empty runs in-memory; not with -protocol skeen")
		destArg  = flag.String("dest", "0", "client: comma-separated destination groups")
		count    = flag.Int("count", 10, "client: number of messages to multicast")
		payload  = flag.String("payload", "hello", "client: payload prefix")
		timeout  = flag.Duration("timeout", 30*time.Second, "client: per-message completion timeout")
	)
	flag.Parse()

	addrs := strings.Split(*peersArg, ",")
	replicas := *groups * *size
	if *peersArg == "" || len(addrs) < replicas {
		log.Fatalf("need at least %d addresses in -peers", replicas)
	}
	if *id < 0 || *id >= len(addrs) {
		log.Fatalf("-id %d is not an index into -peers (0..%d)", *id, len(addrs)-1)
	}
	proto, err := wbcast.ParseProtocol(*protocol)
	if err != nil {
		log.Fatal(err)
	}
	peers := make(map[wbcast.ProcessID]string, len(addrs))
	for i, a := range addrs {
		peers[wbcast.ProcessID(i)] = strings.TrimSpace(a)
	}
	cfg := wbcast.Config{
		Protocol:  proto,
		Groups:    *groups,
		Replicas:  *size,
		Delta:     *delta,
		Transport: wbcast.TCP(*listen, peers),
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	pid := wbcast.ProcessID(*id)
	if *id < replicas {
		err = runReplica(cfg, pid, *verbose, *metrics, *dataDir)
	} else {
		err = runClient(cfg, pid, *destArg, *count, *payload, *timeout)
	}
	cfg.Transport.Close()
	if err != nil {
		log.Fatal(err)
	}
}

// runReplica hosts replica pid until SIGINT/SIGTERM.
func runReplica(cfg wbcast.Config, pid wbcast.ProcessID, verbose bool, metrics, dataDir string) error {
	if dataDir != "" {
		// Durable mode: every crash-surviving state transition is synced to
		// an append-only WAL under <data-dir>/p<id> before the corresponding
		// message leaves the process; restarting on the same directory
		// recovers the replica's promises, records and delivery frontier.
		cfg.Storage = wbcast.DirStorage(dataDir)
	}
	rep, err := wbcast.NewReplica(cfg, pid)
	if err != nil {
		return err
	}
	if verbose {
		sub := rep.Deliveries()
		go func() {
			for d := range sub.C() {
				log.Printf("deliver %v gts=%v payload=%q", d.Msg.ID, d.GTS, d.Msg.Payload)
			}
		}()
	}
	fmt.Printf("wbcast-node %d (%s, group %d) listening on %s\n", pid, cfg.Protocol, rep.Group(), rep.Addr())
	if metrics != "" {
		ms, err := wbcast.ServeMetrics(metrics, rep)
		if err != nil {
			rep.Close()
			return err
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics (expvar: /debug/vars, profiling: /debug/pprof/)\n", ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := rep.Stats()
	fmt.Printf("stats: encoded=%d frames_sent=%d coalesced=%d read=%d drops=%d reconnects=%d mailbox_hw=%d\n",
		st.MessagesEncoded, st.FramesSent, st.FramesCoalesced, st.FramesRead,
		st.OutboundDrops, st.Reconnects, st.MailboxHighWater)
	// Clean shutdown: Shutdown writes a final synced snapshot and truncates
	// the WAL, so the next start recovers from the snapshot alone. Without
	// -data-dir it is equivalent to Close.
	if err := rep.Shutdown(); err != nil {
		log.Printf("shutdown: %v", err)
	}
	return nil
}

// runClient multicasts count messages to the groups of destArg from client
// pid, one at a time, and prints each one's completion latency.
func runClient(cfg wbcast.Config, pid wbcast.ProcessID, destArg string, count int, payload string, timeout time.Duration) error {
	var dest []wbcast.GroupID
	for _, part := range strings.Split(destArg, ",") {
		var g int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &g); err != nil || g < 0 || g >= cfg.Groups {
			return fmt.Errorf("bad destination group %q", part)
		}
		dest = append(dest, wbcast.GroupID(g))
	}
	destSet := wbcast.NewGroupSet(dest...)
	cl, err := wbcast.NewClient(cfg, pid)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		start := time.Now()
		id, err := cl.Multicast(ctx, []byte(fmt.Sprintf("%s-%d", payload, i)), destSet...)
		cancel()
		if err != nil {
			return fmt.Errorf("message %d: %v", i, err)
		}
		fmt.Printf("%v delivered by groups %v in %v\n", id, destSet, time.Since(start).Round(10*time.Microsecond))
	}
	fmt.Printf("completed %d multicasts to %v\n", count, destSet)
	return nil
}
