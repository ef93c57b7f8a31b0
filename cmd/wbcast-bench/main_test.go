package main

import (
	"testing"
	"time"

	"wbcast"
)

// TestRunPointSmoke measures one short 3-group LAN point per protocol
// through the runPoint the CLI sweeps with, so the one remaining multicast
// load driver cannot rot unnoticed.
func TestRunPointSmoke(t *testing.T) {
	for _, p := range []wbcast.Protocol{wbcast.WhiteBox, wbcast.FastCast, wbcast.FTSkeen, wbcast.Skeen, wbcast.Genmcast} {
		t.Run(p.String(), func(t *testing.T) {
			res, err := runPoint(pointConfig{
				protocol: p, groups: 3, size: protocolSize(p, 3),
				clients: 4, outstanding: 1, destGroups: 2, payloadSize: 20,
				latency: wbcast.LAN(), seed: 1,
				warmup: 50 * time.Millisecond, measure: 250 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.throughput <= 0 {
				t.Errorf("throughput %.0f msgs/s: no operation completed in the window", res.throughput)
			}
			if res.batches <= 0 {
				t.Errorf("batch/s %.0f: Client.BatchesSent counted no multicast in the window", res.batches)
			}
			if res.p50 <= 0 || res.p99 < res.p50 {
				t.Errorf("latency p50 %v, p99 %v: want p99 ≥ p50 > 0", res.p50, res.p99)
			}
			if res.mailboxHW < 0 {
				t.Errorf("mbox_hw = %d", res.mailboxHW)
			}
		})
	}
}
