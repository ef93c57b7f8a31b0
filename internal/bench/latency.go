// Package bench regenerates the paper's message-delay latency table (§VI:
// Skeen 2δ/4δ, FT-Skeen 6δ/12δ, FastCast 4δ/8δ, WbCast 3δ/5δ) over the
// discrete-event simulator. cmd/wbcast-latency prints it, the canonical
// benchmark's sim-reference workload and BenchmarkLatencyTable measure with
// the same probes. The failure-free sweep's probes are independent
// simulations and run concurrently; the table is the same at any GOMAXPROCS.
package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/sim"
)

// LatencyRow is one line of the message-delay latency table: measured
// collision-free and failure-free delivery latencies of one protocol, in
// units of δ.
type LatencyRow struct {
	Protocol      string
	CollisionFree float64 // leader-level delivery latency, multiples of δ
	FailureFree   float64 // worst latency under the adversarial probe sweep
	FollowerCF    float64 // collision-free latency at the slowest process
	PaperCF       float64 // the paper's claimed collision-free latency
	PaperFF       float64 // the paper's claimed failure-free latency
}

// latDelta is the δ used by the simulated latency experiments.
const latDelta = 10 * time.Millisecond

// CollisionFree measures the collision-free delivery latency of one
// multicast to two groups (of the given size), in multiples of δ: at the
// destination leaders (the paper's client-perceived metric) and at the
// slowest destination process.
func CollisionFree(p harness.Protocol, groupSize int) (leader, slowest float64, err error) {
	c, err := harness.NewCluster(p, harness.Options{
		Groups: 2, GroupSize: groupSize, NumClients: 1,
		Latency: sim.Uniform(latDelta),
	})
	if err != nil {
		return 0, 0, err
	}
	dest := mcast.NewGroupSet(0, 1)
	id := c.Submit(0, 0, dest, []byte("m"))
	c.Sim.Run(time.Minute)
	if errs := c.Check(true); len(errs) > 0 {
		return 0, 0, fmt.Errorf("correctness violation during latency run: %w", errs[0])
	}
	lat, ok := c.MaxDeliveryLatency(id, dest)
	if !ok {
		return 0, 0, fmt.Errorf("message not delivered")
	}
	var worstProc time.Duration
	for _, d := range c.Sim.Deliveries() {
		if d.D.Msg.ID == id && d.At > worstProc {
			worstProc = d.At
		}
	}
	return inDelta(lat), inDelta(worstProc), nil
}

// FailureFree searches empirically for the worst-case delivery latency of a
// message m under a single adversarially-timed conflicting message m'
// (the convoy effect of paper Fig. 2): for a sweep of injection times, m'
// is delivered to m's group-0 leader with ~zero delay while taking the full
// δ to the other group, maximising the time m stays blocked. It returns the
// worst observed latency of m in multiples of δ. probes <= 0 means 64.
//
// Each probe is an independent simulation, so the probes run concurrently,
// one goroutine each; the result (or the probes' errors, in probe order)
// does not depend on how they are scheduled.
func FailureFree(p harness.Protocol, groupSize int, probes int) (float64, error) {
	if probes <= 0 {
		probes = 64
	}
	lats := make([]time.Duration, probes)
	errs := make([]error, probes)
	var wg sync.WaitGroup
	for i := range probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Probe m' injection times across the whole window in which m
			// can be in flight (up to 8δ covers every protocol here).
			offset := time.Duration(i) * 8 * latDelta / time.Duration(probes)
			lats[i], errs[i] = convoyProbe(p, groupSize, probeT0, probeT0+offset)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return inDelta(slices.Max(lats)), nil
}

// probeT0 is when m is submitted: after the clock warm-up of group 1
// quiesces.
const probeT0 = 20 * latDelta

// convoyProbe runs one adversarial schedule: warm-up messages raise group
// 1's clock, m goes to both groups at tM, and m' is injected at tPrime with
// near-zero delay to group 0's leader and full δ to group 1's.
func convoyProbe(p harness.Protocol, groupSize int, tM, tPrime time.Duration) (time.Duration, error) {
	var mPrime mcast.MsgID
	leader0 := mcast.ProcessID(0)
	lat := func(from, to mcast.ProcessID, m msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		if mc, ok := m.(msgs.Multicast); ok && mPrime != 0 && mc.M.ID == mPrime && to == leader0 {
			return latDelta / 1000
		}
		return latDelta
	}
	c, err := harness.NewCluster(p, harness.Options{
		Groups: 2, GroupSize: groupSize, NumClients: 2, Latency: lat,
	})
	if err != nil {
		return 0, err
	}
	for i := 0; i < 8; i++ {
		c.Submit(0, 1, mcast.NewGroupSet(1), nil)
	}
	m := c.Submit(tM, 0, mcast.NewGroupSet(0, 1), []byte("m"))
	mPrime = c.Submit(tPrime, 1, mcast.NewGroupSet(0, 1), []byte("m'"))
	c.Sim.Run(time.Minute)
	if errs := c.Check(true); len(errs) > 0 {
		return 0, fmt.Errorf("correctness violation during convoy probe: %w", errs[0])
	}
	lat0, ok := c.DeliveryLatency(m, 0)
	if !ok {
		return 0, fmt.Errorf("m not delivered in group 0")
	}
	return lat0, nil
}

func inDelta(d time.Duration) float64 {
	return float64(d) / float64(latDelta)
}

// LatencyTable measures every protocol's collision-free and failure-free
// latencies and returns the table. Skeen runs with singleton groups (its
// model); the fault-tolerant protocols with groups of three.
func LatencyTable(probes int) ([]LatencyRow, error) {
	rows := []struct {
		proto     harness.Protocol
		groupSize int
		paperCF   float64
		paperFF   float64
	}{
		{protoSkeen, 1, 2, 4},
		{protoFTSkeen, 3, 6, 12},
		{protoFastCast, 3, 4, 8},
		{protoWbCast, 3, 3, 5},
	}
	var out []LatencyRow
	for _, r := range rows {
		leader, slowest, err := CollisionFree(r.proto, r.groupSize)
		if err != nil {
			return nil, fmt.Errorf("%s: collision-free: %w", r.proto.Name(), err)
		}
		ff, err := FailureFree(r.proto, r.groupSize, probes)
		if err != nil {
			return nil, fmt.Errorf("%s: failure-free: %w", r.proto.Name(), err)
		}
		out = append(out, LatencyRow{
			Protocol:      r.proto.Name(),
			CollisionFree: leader,
			FailureFree:   ff,
			FollowerCF:    slowest,
			PaperCF:       r.paperCF,
			PaperFF:       r.paperFF,
		})
	}
	return out, nil
}
