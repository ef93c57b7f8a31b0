package harness_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"maps"
	"slices"
	"testing"

	"wbcast/internal/bench"
)

// goldenSeeds are the chaos schedules TestGoldenLogs replays.
const goldenSeeds = 12

// goldenDigests are SHA-256 digests of what a seeded simulation produces:
// per chaos row, the delivery and trace logs of runChaos for seeds 1–12;
// per durable row, the delivery logs of runChaosDurable for the same seeds
// with commits of 0 and δ/4; and the rows of bench.LatencyTable(64).
// A change that claims not to touch protocol traffic or the simulator's
// event order must leave every one of them as it is.
var goldenDigests = map[string]string{
	"chaos/fastcast":            "44b8d1f4130812528a3f6e4942495fb28fe80e17d67fbae8adae07cdab998e8a",
	"chaos/ftskeen":             "5418988d2d9dafb6f3eefb9d780b6226cd23c0b47ca9d72e16d872bfcf2f1f82",
	"chaos/genmcast":            "ef4ef7d638e613c5e3277b79e96677af2b1158eb34b1d7338565a29a0c777358",
	"chaos/skeen":               "5ed3b8a436fc5bd24cc6213d7c0cd7ec2c4df61a3d39378eefae786e43d2ec95",
	"chaos/wbcast":              "d100ef24fea344c2fc6734e0c6c09dc4e78b3d845f54647bea969a8c698be676",
	"durable/fastcast":          "b1c855cd8169207144c975e08f8a8e3bbd13a358697e725f3f817a15d6c6affb",
	"durable/ftskeen":           "28063aa21fb6bd28213f756df46ee54ec223ff7ce727afbe69cf932ee10301df",
	"durable/genmcast":          "2fecc70bbc19042ceb30c9e3689c678b8ae6e1cde296177067a21dbb8c2c181f",
	"durable/wbcast":            "5a36a9384ac10c83934ed6b5b02f7bdbfae57d04af055f23640b2dca6396fdfc",
	"durable/wbcast+apphorizon": "848acdba936d15bfdc9d3edad129145cccbbd3eff9c9624e2405c5304255aae9",
	"latency-table":             "7ab6ddd524774f36ceaa3ee5c9cec2c92d500c5931fc36e51fa26e749c3f87ed",
}

// TestGoldenLogs pins the simulator's event order end to end: any change to
// the order in which events run, to what a handler sends, or to the seeded
// random stream shows as a different digest. Run with -v to print the
// digests of the current tree.
func TestGoldenLogs(t *testing.T) {
	got := map[string]string{}
	for _, row := range chaosRows() {
		h := sha256.New()
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			delivery, trace := runChaos(t, row, seed)
			digestPart(h, "seed %d delivery", seed, delivery)
			digestPart(h, "seed %d trace", seed, trace)
		}
		got["chaos/"+row.name()] = fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, row := range durableRows() {
		if !row.durable {
			continue
		}
		h := sha256.New()
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			digestPart(h, "seed %d σ=0", seed, runChaosDurable(t, row, seed, 0, memStorage()))
			digestPart(h, "seed %d σ=δ/4", seed, runChaosDurable(t, row, seed, chaosDelta/4, memStorage()))
		}
		got["durable/"+row.name()] = fmt.Sprintf("%x", h.Sum(nil))
	}
	rows, err := bench.LatencyTable(64)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%+v\n", r)
	}
	got["latency-table"] = fmt.Sprintf("%x", h.Sum(nil))

	for _, name := range slices.Sorted(maps.Keys(got)) {
		d := got[name]
		t.Logf("%q: %q,", name, d)
		if want, ok := goldenDigests[name]; !ok {
			t.Errorf("%s: no golden digest", name)
		} else if d != want {
			t.Errorf("%s: digest %s, want %s", name, d, want)
		}
	}
	for name := range goldenDigests {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest of a row that no longer runs", name)
		}
	}
}

// digestPart writes a labelled, length-prefixed part into h, so two logs
// that only split differently between seeds cannot collide.
func digestPart(h hash.Hash, label string, seed int64, b []byte) {
	fmt.Fprintf(h, label+" %d\n", seed, len(b))
	h.Write(b)
}
