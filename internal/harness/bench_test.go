package harness_test

import (
	"math/rand"
	"testing"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/sim"
)

// BenchmarkEpisode is one closed-loop simulator episode as sim-reference
// runs them: a 3×3 WhiteBox cluster without background timers, two clients
// keeping 16 multicasts in flight, 4 000 in all, to seeded 1–2-group
// destinations, every message delay δ = 2 ms plus up to δ/4 of jitter, then
// the continuous monitor and the genuineness audit over the whole run. One
// op is one episode; the simulator's event queue and the handlers do the
// work.
func BenchmarkEpisode(b *testing.B) {
	const (
		delta    = 2 * time.Millisecond
		ops      = 4000
		inFlight = 16
	)
	payload := make([]byte, 64)
	b.ReportAllocs()
	for b.Loop() {
		c, err := harness.NewCluster(core.Protocol{}, harness.Options{
			Groups: 3, GroupSize: 3, NumClients: 2,
			Latency: sim.UniformJitter(delta, delta/4), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		submitted, completed := 0, 0
		submit := func() {
			gs := rng.Perm(3)[:1+rng.Intn(2)]
			dest := make([]mcast.GroupID, len(gs))
			for i, g := range gs {
				dest[i] = mcast.GroupID(g)
			}
			c.Submit(c.Sim.Now(), submitted%2, mcast.NewGroupSet(dest...), payload)
			submitted++
		}
		c.OnComplete(func(mcast.MsgID) {
			completed++
			if submitted < ops {
				submit()
			}
		})
		for i := 0; i < inFlight; i++ {
			submit()
		}
		c.Sim.Run(time.Hour)
		c.CollectHistory()
		if errs := append(c.Monitor.Errs(), c.Sim.AuditGenuineness(c.Top)...); len(errs) > 0 {
			b.Fatal(errs[0])
		}
		if completed != ops {
			b.Fatalf("%d of %d multicasts completed", completed, ops)
		}
	}
}
