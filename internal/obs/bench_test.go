package obs

import (
	"testing"
	"time"

	"wbcast/internal/mcast"
)

// The hot-path cost model the package promises: counters and histogram
// observations are single atomic ops, and an unsampled message's tracer
// check is a modulo test — all allocation-free.

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

func BenchmarkTracerUnsampled(b *testing.B) {
	clock := func() time.Duration { return 0 }
	tr := NewTracer(1000, clock)
	id := mcast.MakeMsgID(3, 1) // seq 1 % 1000 != 0: never sampled
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Sampled(id) {
			tr.Message(0, id, StageDeliver, "")
		}
	}
}

func BenchmarkProtoStage(b *testing.B) {
	reg := NewRegistry(`proc="0"`)
	p := NewProto(reg, func() time.Duration { return 0 }, nil, 0)
	id := mcast.MakeMsgID(3, 1)
	var at time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Stage(StageCommit, id, &at)
	}
}
