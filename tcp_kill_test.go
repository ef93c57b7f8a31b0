package wbcast_test

import (
	"bufio"
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
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"wbcast"
)

// Crash-recovery end to end: a replica process is SIGKILLed mid-load and
// restarted on the same data directory. The restarted incarnation must
// recover its durable state from the WAL, rejoin the cluster, and keep the
// delivery order it had already exposed: no (ID, Sub) delivered twice
// across incarnations, GTS strictly increasing across the kill boundary.
//
// The victim runs as a real child OS process (the classic re-exec helper
// pattern), so the kill is a genuine SIGKILL — no deferred cleanup, no
// final sync, exactly the crash the WAL exists for.

const (
	helperEnv  = "WBCAST_HELPER_NODE"
	helperPID  = "WBCAST_HELPER_PID"
	helperDir  = "WBCAST_HELPER_DATADIR"
	helperPeer = "WBCAST_HELPER_PEERS"
	helperMet  = "WBCAST_HELPER_METRICS"

	killGroups   = 1
	killReplicas = 3
	killVictim   = wbcast.ProcessID(2) // a follower of group 0
	deliveryLog  = "deliveries.log"
)

// TestHelperNode is not a test: it is the victim replica's main function,
// run in a child process by TestTCPKillRecovery. It hosts one disk-backed
// replica and appends every delivery it observes to a log inside the data
// directory (fsynced per line, so the log is crash-consistent too). It
// never returns — the parent SIGKILLs it.
func TestHelperNode(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process for TestTCPKillRecovery")
	}
	pidN, err := strconv.Atoi(os.Getenv(helperPID))
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: bad pid: %v\n", err)
		os.Exit(2)
	}
	dataDir := os.Getenv(helperDir)
	peers := make(map[wbcast.ProcessID]string)
	for _, kv := range strings.Split(os.Getenv(helperPeer), ";") {
		parts := strings.SplitN(kv, "=", 2)
		p, err := strconv.Atoi(parts[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "helper: bad peers entry %q\n", kv)
			os.Exit(2)
		}
		peers[wbcast.ProcessID(p)] = parts[1]
	}
	cfg := wbcast.Config{
		Groups:    killGroups,
		Replicas:  killReplicas,
		Delta:     2 * time.Millisecond,
		Transport: wbcast.TCP("", peers),
		Storage:   wbcast.DirStorage(dataDir),
	}
	rep, err := wbcast.NewReplica(cfg, wbcast.ProcessID(pidN))
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	if maddr := os.Getenv(helperMet); maddr != "" {
		if _, err := wbcast.ServeMetrics(maddr, rep); err != nil {
			fmt.Fprintf(os.Stderr, "helper: %v\n", err)
			os.Exit(1)
		}
	}
	// The delivery log lives beside the replica's storage directory (which
	// DirStorage roots at dataDir/p<pid>).
	f, err := os.OpenFile(filepath.Join(dataDir, deliveryLog), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	sub := rep.Deliveries()
	for d := range sub.C() {
		fmt.Fprintf(f, "%d %d %d %d %q\n", uint64(d.Msg.ID), d.Sub, d.GTS.Time, d.GTS.Group, d.Msg.Payload)
		f.Sync()
	}
}

// reserveAddrs picks n distinct loopback ports that parent and child agree
// on as a fixed address book. A port in the kernel's ephemeral range
// (ip_local_port_range) is what the kernel hands to every bind to port 0
// and every outbound connection on the host, so while the victim is down a
// test package running in parallel — its listeners, its dials — can take
// it and hold it for the rest of its run. So on Linux the ports come from
// the band just below that range, scanned from a random start, each kept
// once a probe listen accepts it. Where the range cannot be read, the
// kernel picks them (port 0).
func reserveAddrs(t *testing.T, n int) []string {
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
// reserved by reserveAddrs, so another process may have bound one
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

// helperLine is one parsed delivery of the victim's log.
type helperLine struct {
	id      uint64
	sub     int
	gtsTime uint64
	gtsGrp  int
	payload string
}

func readHelperLog(t *testing.T, path string) []helperLine {
	t.Helper()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []helperLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l helperLine
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %d %d %q",
			&l.id, &l.sub, &l.gtsTime, &l.gtsGrp, &l.payload); err != nil {
			t.Fatalf("bad delivery line %q: %v", sc.Text(), err)
		}
		out = append(out, l)
	}
	return out
}

func TestTCPKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child OS processes")
	}
	dataDir := t.TempDir()
	logPath := filepath.Join(dataDir, deliveryLog)
	// Fixed address book: 3 replicas, 1 client, 1 metrics endpoint. The
	// victim's address must survive its restart, so every port is pinned.
	addrs := reserveAddrs(t, killReplicas+2)
	peers := make(map[wbcast.ProcessID]string)
	for pid := 0; pid <= killReplicas; pid++ {
		peers[wbcast.ProcessID(pid)] = addrs[pid]
	}
	metricsAddr := addrs[killReplicas+1]
	var peerParts []string
	for pid := 0; pid <= killReplicas; pid++ {
		peerParts = append(peerParts, fmt.Sprintf("%d=%s", pid, peers[wbcast.ProcessID(pid)]))
	}
	env := append(os.Environ(),
		helperEnv+"=1",
		fmt.Sprintf("%s=%d", helperPID, killVictim),
		helperDir+"="+dataDir,
		helperPeer+"="+strings.Join(peerParts, ";"),
		helperMet+"="+metricsAddr,
	)
	startVictim := func() (*victim, time.Duration) {
		t.Helper()
		return startServing(t, "^TestHelperNode$", env, func() bool {
			resp, err := http.Get("http://" + metricsAddr + "/metrics")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
	}

	cfg := wbcast.Config{
		Groups:    killGroups,
		Replicas:  killReplicas,
		Delta:     2 * time.Millisecond,
		Transport: wbcast.TCP("", peers),
	}
	for pid := wbcast.ProcessID(0); pid < killVictim; pid++ {
		r, err := wbcast.NewReplica(cfg, pid)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
	}
	defer cfg.Transport.Close()
	client, err := wbcast.NewClient(cfg, wbcast.ProcessID(killReplicas))
	if err != nil {
		t.Fatal(err)
	}

	first, _ := startVictim()
	defer first.kill()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	mcastAll := func(prefix string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := client.Multicast(ctx, []byte(fmt.Sprintf("%s-%d", prefix, i)), 0); err != nil {
				t.Fatalf("multicast %s-%d: %v", prefix, i, err)
			}
		}
	}
	waitForPayload := func(payload string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			for _, l := range readHelperLog(t, logPath) {
				if l.payload == payload {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for the victim to log delivery of %q (%d lines so far)",
					payload, len(readHelperLog(t, logPath)))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Phase 1: load with the victim up; wait until it has observed (and
	// durably logged) deliveries, then SIGKILL it mid-operation.
	mcastAll("pre", 8)
	waitForPayload("pre-7")
	if err := first.kill(); err != nil {
		t.Fatal(err)
	}

	// The data directory must hold durable state for the restart to replay.
	if fi, err := os.Stat(filepath.Join(dataDir, fmt.Sprintf("p%d", killVictim), "wal")); err != nil || fi.Size() == 0 {
		t.Fatalf("victim left no WAL to recover from (err=%v)", err)
	}

	// Phase 2: load while the victim is down — the group has quorum.
	mcastAll("down", 4)

	// Phase 3: restart on the same data directory; the new incarnation
	// replays snapshot+WAL, rejoins, catches up, and keeps delivering.
	second, served := startVictim()
	defer second.kill()
	t.Logf("the restarted victim served %v after it was started", served.Round(time.Millisecond))
	mcastAll("post", 4)
	waitForPayload("post-3")

	// Replay must actually have happened: the restarted incarnation's
	// recovery counter is visible on its metrics endpoint.
	replayRe := regexp.MustCompile(`wbcast_replay_entries_total\{[^}]*\} (\d+)`)
	var replayed int
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := http.Get("http://" + metricsAddr + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if m := replayRe.FindSubmatch(body); m != nil {
				replayed, _ = strconv.Atoi(string(m[1]))
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if replayed == 0 {
		t.Error("restarted victim reports no replayed WAL entries; recovery did not replay the log")
	}

	// The combined log across both incarnations: no (ID, Sub) delivered
	// twice, and the global order strictly increasing — the pre-kill
	// frontier was durable, so the restart never rewinds behind it.
	lines := readHelperLog(t, logPath)
	if len(lines) == 0 {
		t.Fatal("empty victim delivery log")
	}
	seen := make(map[[2]uint64]string)
	for _, l := range lines {
		key := [2]uint64{l.id, uint64(l.sub)}
		if prev, dup := seen[key]; dup {
			t.Errorf("message %d/%d delivered twice across incarnations (%q then %q)", l.id, l.sub, prev, l.payload)
		}
		seen[key] = l.payload
	}
	for i := 1; i < len(lines); i++ {
		a, b := lines[i-1], lines[i]
		before := a.gtsTime < b.gtsTime ||
			(a.gtsTime == b.gtsTime && a.gtsGrp < b.gtsGrp) ||
			(a.gtsTime == b.gtsTime && a.gtsGrp == b.gtsGrp && a.sub < b.sub)
		if !before {
			t.Errorf("delivery %d (%q gts=(%d,g%d)) not ordered above its predecessor (%q gts=(%d,g%d)) — the restart rewound the frontier",
				i, b.payload, b.gtsTime, b.gtsGrp, a.payload, a.gtsTime, a.gtsGrp)
		}
	}
	// Everything the victim's group committed must eventually appear: the
	// restarted incarnation caught up on the messages it missed while down.
	for _, prefix := range []string{"pre", "down", "post"} {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l.payload, prefix+"-") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q-phase delivery in the victim's log; catch-up after restart is incomplete", prefix)
		}
	}
}
