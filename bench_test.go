// Benchmarks regenerating the paper's message-delay artefacts on the
// deterministic simulator, one per table or figure; each reports the
// measured delivery latency in multiples of δ ("δ-multiple", "CFδ", "FFδ"):
//
//	Fig. 2  BenchmarkFig2ConvoyEffectSkeen
//	Fig. 5  BenchmarkFig5CollisionFreeWbCast
//	table   BenchmarkLatencyTable/<protocol>
//
// The Fig. 7/8 throughput curves come from cmd/wbcast-bench, the real-stack
// numbers from benchmark/ (see README "Reproducing the paper").
package wbcast_test

import (
	"testing"

	"wbcast/internal/bench"
)

// BenchmarkFig2ConvoyEffectSkeen measures Skeen's worst-case (failure-free)
// latency under the adversarial schedule of paper Fig. 2. Expect ≈ 4δ
// (double the 2δ collision-free latency).
func BenchmarkFig2ConvoyEffectSkeen(b *testing.B) {
	p, _ := bench.ProtocolByName("skeen")
	var last float64
	for i := 0; i < b.N; i++ {
		ff, err := bench.FailureFree(p, 1, 16)
		if err != nil {
			b.Fatal(err)
		}
		last = ff
	}
	b.ReportMetric(last, "δ-multiple")
}

// BenchmarkFig5CollisionFreeWbCast measures the white-box protocol's
// collision-free delivery latency (paper Fig. 5 / Theorem 3). Expect
// exactly 3δ at the destination leaders.
func BenchmarkFig5CollisionFreeWbCast(b *testing.B) {
	p, _ := bench.ProtocolByName("wbcast")
	var last float64
	for i := 0; i < b.N; i++ {
		cf, _, err := bench.CollisionFree(p, 3)
		if err != nil {
			b.Fatal(err)
		}
		last = cf
	}
	b.ReportMetric(last, "δ-multiple")
}

// BenchmarkLatencyTable measures both latency metrics for every protocol
// (the paper's 2δ/4δ, 6δ/12δ, 4δ/8δ, 3δ/5δ comparison).
func BenchmarkLatencyTable(b *testing.B) {
	for _, tc := range []struct {
		name      string
		groupSize int
	}{
		{"skeen", 1}, {"ftskeen", 3}, {"fastcast", 3}, {"wbcast", 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, err := bench.ProtocolByName(tc.name)
			if err != nil {
				b.Fatal(err)
			}
			var cf, ff float64
			for i := 0; i < b.N; i++ {
				cf, _, err = bench.CollisionFree(p, tc.groupSize)
				if err != nil {
					b.Fatal(err)
				}
				ff, err = bench.FailureFree(p, tc.groupSize, 16)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cf, "CFδ")
			b.ReportMetric(ff, "FFδ")
		})
	}
}
