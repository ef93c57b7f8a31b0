package bench_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"wbcast/internal/bench"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/protocols"
	"wbcast/internal/sim"
	"wbcast/internal/wal"
	"wbcast/internal/wire"
)

var updateCosts = flag.Bool("update-costs", false, "rewrite testdata/costs.txt with this tree's counts")

const costTable = "testdata/costs.txt"

// costMulticasts is the workload's length: one client submits a multicast
// every δ/2, cycling through {0,1}, {0}, {1}, so two-group messages queue
// behind single-group ones on both sides (the convoy of paper Fig. 2).
const costMulticasts = 60

// TestCostTable counts what one fixed simulated workload costs per
// multicast, for every protocol volatile and for the fault-tolerant ones
// durable too: messages received by kind, Handle calls, WAL appends, entries
// and syncs, received bytes in wire encoding, and allocations and bytes
// allocated. Counts are exact in the simulator, so the test compares them
// with testdata/costs.txt and fails on any rise; -update-costs rewrites the
// table, which a change that lowers a count should do. Allocations are
// counted on a second run without the counting hooks, and are left out
// under -race, whose runtime allocates.
func TestCostTable(t *testing.T) {
	race := raceEnabled()
	if *updateCosts && race {
		t.Fatal("-update-costs under -race would drop the allocation rows")
	}
	var got []costRow
	for _, p := range protocols.All {
		modes := []bool{false}
		if p.FaultTolerant {
			modes = append(modes, true)
		}
		for _, durable := range modes {
			rows, err := measureCosts(p.Name(), durable, !race)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rows...)
		}
	}
	for _, r := range got {
		t.Logf("%-18s %-22s %10.2f", r.name, r.metric, r.value)
	}
	if *updateCosts {
		if err := writeCosts(got); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readCosts()
	if err != nil {
		t.Fatalf("%v (run with -update-costs to write it)", err)
	}
	for _, r := range got {
		w, ok := want[r.name+" "+r.metric]
		switch {
		case !ok:
			t.Errorf("%s %s = %.2f per multicast: not in %s (a new cost; rerun with -update-costs)", r.name, r.metric, r.value, costTable)
		case round2(r.value) > w*(1+r.slack()):
			t.Errorf("%s %s rose: %.2f per multicast, table %.2f", r.name, r.metric, r.value, w)
		case round2(r.value) < w:
			t.Logf("%s %s fell: %.2f per multicast, table %.2f; lower the table with -update-costs", r.name, r.metric, r.value, w)
		}
	}
}

// costRow is one count of one protocol and mode, per multicast.
type costRow struct {
	name, metric string
	value        float64
}

// allocSlack is how far an allocation row may exceed the table. Every other
// count is exact, but a map's layout follows its random hash seed, so a
// run's allocations vary by a few in ten thousand (the least of three runs
// of fastcast read 85.32 or 85.35 per multicast). One allocation more per
// Handle call adds 20 % or more.
const allocSlack = 0.01

func (r costRow) slack() float64 {
	if strings.HasPrefix(r.metric, "alloc") {
		return allocSlack
	}
	return 0
}

// measureCosts runs the workload on protocol name, durable or volatile,
// and returns its counts per multicast (allocations only if allocs).
func measureCosts(name string, durable, allocs bool) ([]costRow, error) {
	row := name + "/volatile"
	if durable {
		row = name + "/durable"
	}
	var handles, recvBytes, appends, entries, syncs int
	var buf []byte
	var encErr error
	trace := func(ev sim.TraceEvent) {
		handles++
		if r, ok := ev.In.(node.Recv); ok {
			var err error
			if buf, err = wire.Encode(buf[:0], r.Msg); err != nil && encErr == nil {
				encErr = err
			}
			recvBytes += len(buf)
		}
	}
	var storage func(mcast.ProcessID) (wal.Storage, error)
	if durable {
		storage = func(mcast.ProcessID) (wal.Storage, error) {
			return &countingStore{Storage: wal.NewMemory(), appends: &appends, entries: &entries, syncs: &syncs}, nil
		}
	}
	c, run, err := costCluster(name, trace, storage)
	if err != nil {
		return nil, err
	}
	if err := run(); err != nil {
		return nil, err
	}
	if errs := c.Check(true); len(errs) > 0 {
		return nil, fmt.Errorf("%s: %v", row, errs[0])
	}
	if encErr != nil {
		return nil, fmt.Errorf("%s: %v", row, encErr)
	}
	per := func(n int) float64 { return float64(n) / costMulticasts }
	rows := []costRow{{row, "handle", per(handles)}, {row, "recv_bytes", per(recvBytes)}}
	for k := msgs.Kind(1); k != 0; k++ {
		if n := c.Sim.MessageCount(k); n > 0 {
			rows = append(rows, costRow{row, "msg." + k.String(), per(n)})
		}
	}
	if durable {
		rows = append(rows, costRow{row, "wal.appends", per(appends)},
			costRow{row, "wal.entries", per(entries)}, costRow{row, "wal.syncs", per(syncs)})
	}
	if allocs {
		if durable {
			storage = func(mcast.ProcessID) (wal.Storage, error) { return wal.NewMemory(), nil }
		}
		// The least of five runs, with the collector off so that no
		// sync.Pool is emptied in between: what is left is the program's own.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		n, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 5 {
			_, run, err := costCluster(name, nil, storage)
			if err != nil {
				return nil, err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := run(); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&after)
			n = min(n, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		rows = append(rows, costRow{row, "allocs", per(int(n))}, costRow{row, "alloc_bytes", per(int(bytes))})
	}
	return rows, nil
}

// costCluster builds the cluster of protocol name and submits the
// workload. run runs it to quiescence and fails unless every multicast
// completed; the correctness check is the caller's, outside what it counts.
func costCluster(name string, trace func(sim.TraceEvent), storage func(mcast.ProcessID) (wal.Storage, error)) (*harness.Cluster, func() error, error) {
	p, err := bench.ProtocolByName(name)
	if err != nil {
		return nil, nil, err
	}
	size := 3
	if name == "skeen" {
		size = 1
	}
	c, err := harness.NewCluster(p, harness.Options{
		Groups: 2, GroupSize: size, NumClients: 1,
		Latency: sim.Uniform(costDelta), Trace: trace, Storage: storage,
	})
	if err != nil {
		return nil, nil, err
	}
	done := 0
	c.OnComplete(func(mcast.MsgID) { done++ })
	dests := []mcast.GroupSet{mcast.NewGroupSet(0, 1), mcast.NewGroupSet(0), mcast.NewGroupSet(1)}
	for i := range costMulticasts {
		c.Submit(time.Duration(i)*costDelta/2, 0, dests[i%len(dests)], []byte{byte(i)})
	}
	run := func() error {
		c.Sim.Run(time.Minute)
		if done != costMulticasts {
			return fmt.Errorf("%s: %d of %d multicasts completed", name, done, costMulticasts)
		}
		return nil
	}
	return c, run, nil
}

const costDelta = 10 * time.Millisecond

// countingStore counts the calls a replica's store receives.
type countingStore struct {
	wal.Storage
	appends, entries, syncs *int
}

func (s *countingStore) Append(es ...wal.Entry) error {
	*s.appends++
	*s.entries += len(es)
	return s.Storage.Append(es...)
}

func (s *countingStore) Sync() error {
	*s.syncs++
	return s.Storage.Sync()
}

func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func writeCosts(rows []costRow) error {
	var b strings.Builder
	b.WriteString("# Costs per multicast of TestCostTable's workload (2 groups × 3 replicas,\n")
	b.WriteString("# Skeen 2 × 1; one client; 60 multicasts to {0,1}, {0}, {1} every δ/2).\n")
	b.WriteString("# The test fails if a count rises; rewrite with go test -run TestCostTable -update-costs.\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-22s %.2f\n", r.name, r.metric, r.value)
	}
	return os.WriteFile(costTable, []byte(b.String()), 0o644)
}

func readCosts() (map[string]float64, error) {
	f, err := os.Open(costTable)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s: malformed line %q", costTable, sc.Text())
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", costTable, err)
		}
		out[fields[0]+" "+fields[1]] = v
	}
	return out, sc.Err()
}
