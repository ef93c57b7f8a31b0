package bench_test

import (
	"testing"

	"wbcast/internal/bench"
)

func TestProtocolByName(t *testing.T) {
	for _, name := range []string{"wbcast", "fastcast", "ftskeen", "skeen", "genmcast"} {
		p, err := bench.ProtocolByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("ProtocolByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := bench.ProtocolByName("nope"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestLatencyTable regenerates the table with a reduced probe count and
// checks that the measured collision-free latencies match the paper exactly
// and the failure-free latencies are within the paper's bounds.
func TestLatencyTable(t *testing.T) {
	rows, err := bench.LatencyTable(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CollisionFree != r.PaperCF {
			t.Errorf("%s: collision-free = %.2fδ, paper says %.0fδ", r.Protocol, r.CollisionFree, r.PaperCF)
		}
		if r.FailureFree < r.PaperCF {
			t.Errorf("%s: failure-free %.2fδ below collision-free", r.Protocol, r.FailureFree)
		}
		if r.FailureFree > r.PaperFF+0.1 {
			t.Errorf("%s: failure-free = %.2fδ exceeds the paper's bound %.0fδ", r.Protocol, r.FailureFree, r.PaperFF)
		}
	}
	// The relative ordering that is the paper's headline: WbCast beats
	// FastCast beats FT-Skeen on both metrics.
	byName := map[string]bench.LatencyRow{}
	for _, r := range rows {
		byName[r.Protocol] = r
	}
	if !(byName["wbcast"].CollisionFree < byName["fastcast"].CollisionFree &&
		byName["fastcast"].CollisionFree < byName["ftskeen"].CollisionFree) {
		t.Error("collision-free ordering wbcast < fastcast < ftskeen violated")
	}
	if !(byName["wbcast"].FailureFree < byName["fastcast"].FailureFree &&
		byName["fastcast"].FailureFree < byName["ftskeen"].FailureFree) {
		t.Error("failure-free ordering wbcast < fastcast < ftskeen violated")
	}
}
