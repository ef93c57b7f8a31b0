// Command wbcast-node runs one multicast replica as a TCP server, built
// entirely on the public wbcast API: a TCP transport plus one NewReplica.
//
// The cluster layout is given as an ordered address list: the first
// groups×size addresses are the replicas (group-major, so replica i belongs
// to group i/size); any further addresses are clients. Every node of the
// cluster must be started with the same -peers list.
//
// Example — a 2-group × 3-replica cluster on one machine:
//
//	PEERS=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004,127.0.0.1:7005,127.0.0.1:7100
//	for i in 0 1 2 3 4 5; do
//	  wbcast-node -id $i -groups 2 -size 3 -peers $PEERS &
//	done
//	wbcast-client -id 6 -groups 2 -size 3 -peers $PEERS -dest 0,1 -count 10
//
// With -data-dir the replica is durable: its ballot promises, accepted
// records and delivery frontier are synced to a write-ahead log under
// <data-dir>/p<id> before the corresponding messages leave the process, and
// restarting the node on the same directory recovers that state (see
// docs/DURABILITY.md).
//
// On shutdown (SIGINT/SIGTERM) the node prints its transport statistics
// (messages encoded, frames sent/coalesced/read, outbound drops, reconnects
// and the mailbox high-water mark) and — with -data-dir — writes a final
// synced snapshot so the next start recovers without WAL replay.
//
// With -metrics-addr the node also serves its observability endpoint:
// /metrics (Prometheus text), /debug/vars (expvar) and /debug/pprof/
// (profiling). See docs/OBSERVABILITY.md for the metric catalog.
package main

import (
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
		id       = flag.Int("id", -1, "this replica's process ID (index into -peers)")
		groups   = flag.Int("groups", 2, "number of groups")
		size     = flag.Int("size", 3, "replicas per group (2f+1)")
		peersArg = flag.String("peers", "", "comma-separated addresses of all processes, replicas first")
		listen   = flag.String("listen", "", "bind address (defaults to this process's -peers entry)")
		protocol = flag.String("protocol", "wbcast", "protocol: wbcast, fastcast, ftskeen, skeen or genmcast")
		delta    = flag.Duration("delta", 5*time.Millisecond, "expected one-way network delay (drives timeouts)")
		verbose  = flag.Bool("v", false, "log deliveries and transport diagnostics")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		dataDir  = flag.String("data-dir", "", "root directory for durable state (WAL + snapshots); empty runs in-memory")
	)
	flag.Parse()

	addrs := strings.Split(*peersArg, ",")
	if *peersArg == "" || len(addrs) < *groups**size {
		log.Fatalf("need at least %d addresses in -peers", *groups**size)
	}
	if *id < 0 || *id >= *groups**size {
		log.Fatalf("-id %d is not a replica index (0..%d)", *id, *groups**size-1)
	}
	proto, err := wbcast.ParseProtocol(*protocol)
	if err != nil {
		log.Fatal(err)
	}
	pid := wbcast.ProcessID(*id)
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
	if *dataDir != "" {
		// Durable mode: every crash-surviving state transition is synced to
		// an append-only WAL under <data-dir>/p<id> before the corresponding
		// message leaves the process; restarting on the same directory
		// recovers the replica's promises, records and delivery frontier.
		cfg.Storage = wbcast.DirStorage(*dataDir)
	}
	rep, err := wbcast.NewReplica(cfg, pid)
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		sub := rep.Deliveries()
		go func() {
			for d := range sub.C() {
				log.Printf("deliver %v gts=%v payload=%q", d.Msg.ID, d.GTS, d.Msg.Payload)
			}
		}()
	}
	fmt.Printf("wbcast-node %d (%s, group %d) listening on %s\n", pid, proto, rep.Group(), rep.Addr())
	if *metrics != "" {
		ms, err := wbcast.ServeMetrics(*metrics, rep)
		if err != nil {
			log.Fatal(err)
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
	cfg.Transport.Close()
}
