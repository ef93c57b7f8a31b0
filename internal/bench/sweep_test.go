package bench

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/node"
)

// sweepProtocols are the five protocols with the group size sim-reference
// runs each at: Skeen's protocol assumes reliable singleton groups.
var sweepProtocols = []struct {
	name      string
	groupSize int
}{
	{"wbcast", 3}, {"fastcast", 3}, {"ftskeen", 3}, {"skeen", 1}, {"genmcast", 3},
}

// TestFailureFreeMatchesSerialSweep holds the concurrent sweep to the same
// probes run one after another: its answer must not depend on scheduling.
func TestFailureFreeMatchesSerialSweep(t *testing.T) {
	const probes = 64
	want := map[string]float64{}
	for _, sp := range sweepProtocols {
		p, err := ProtocolByName(sp.name)
		if err != nil {
			t.Fatal(err)
		}
		lats := make([]time.Duration, probes)
		for i := range probes {
			offset := time.Duration(i) * 8 * latDelta / probes
			if lats[i], err = convoyProbe(p, sp.groupSize, probeT0, probeT0+offset); err != nil {
				t.Fatalf("%s: probe %d: %v", sp.name, i, err)
			}
		}
		want[sp.name] = inDelta(slices.Max(lats))
	}
	// The paper's convoy bounds are 5δ, 8δ and 12δ; the sweep's resolution
	// is δ/8.
	for name, ff := range map[string]float64{"wbcast": 4.875, "fastcast": 7.875, "ftskeen": 9.875} {
		if want[name] != ff {
			t.Errorf("%s: serial sweep = %vδ, want %vδ", name, want[name], ff)
		}
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, sp := range sweepProtocols {
			p, _ := ProtocolByName(sp.name)
			got, err := FailureFree(p, sp.groupSize, probes)
			if err != nil || got != want[sp.name] {
				t.Errorf("GOMAXPROCS %d: %s: FailureFree = %vδ, %v; the serial sweep gives %vδ",
					procs, sp.name, got, err, want[sp.name])
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// BenchmarkReferenceSweep is sim-reference's set-up sweep: the collision-free
// run and the 64-probe convoy sweep of each of the five protocols.
func BenchmarkReferenceSweep(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		for _, sp := range sweepProtocols {
			p, _ := ProtocolByName(sp.name)
			if _, _, err := CollisionFree(p, sp.groupSize); err != nil {
				b.Fatal(err)
			}
			if _, err := FailureFree(p, sp.groupSize, 64); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkConvoyProbe is one convoy probe of the white-box protocol on two
// groups of three: a fresh cluster, ten multicasts, a run to quiescence and
// the full correctness check — the shape of a small model-checking leaf.
func BenchmarkConvoyProbe(b *testing.B) {
	p, err := ProtocolByName("wbcast")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := convoyProbe(p, 3, probeT0, probeT0+4*latDelta); err != nil {
			b.Fatal(err)
		}
	}
}

// brokenProtocol is an adapter none of whose replicas can be built.
type brokenProtocol struct{}

var errBroken = errors.New("no replica")

func (brokenProtocol) Name() string { return "broken" }

func (brokenProtocol) NewReplica(mcast.ProcessID, *mcast.Topology) (node.Handler, error) {
	return nil, errBroken
}

func (brokenProtocol) Contacts(top *mcast.Topology) func(mcast.GroupID) []mcast.ProcessID {
	return top.Members
}

// TestFailureFreeReportsEveryProbe checks that a sweep whose probes fail
// returns their errors and leaves no goroutine behind.
func TestFailureFreeReportsEveryProbe(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := FailureFree(brokenProtocol{}, 3, 64)
	if !errors.Is(err, errBroken) {
		t.Fatalf("FailureFree over a broken adapter: err = %v", err)
	}
	if joined, ok := err.(interface{ Unwrap() []error }); !ok || len(joined.Unwrap()) != 64 {
		t.Errorf("err = %v, want the 64 probes' errors joined", err)
	}
	// A probe's goroutine may still be exiting after its wg.Done.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the sweep, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
