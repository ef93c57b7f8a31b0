package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// goldenOutputs are SHA-256 digests of what wbcast-sim prints: the three
// narrated scenarios, the latency table and the chaos scenario of four
// protocols on seeds 1–3 with the default workload, each without and with
// -trace (which leaves the latency table as it is). Every run is a
// seeded simulation, so its output is byte-for-byte the same on every run;
// a change that claims not to move protocol traffic must leave these as
// they are.
var goldenOutputs = map[string]string{
	"chaos/fastcast/1":       "591677c31d09c1f9194c75275e4c9e443e4d91daba35f66aa96b758680f9fa6a",
	"chaos/fastcast/1/trace": "b778b66170c966e3597acfcf1c3647a500c53e8d9e1569846db3ac59aea2ccdf",
	"chaos/fastcast/2":       "2c347f3c3885d1ffee64dec10d170280d22505702b081a595adf3cb80cd7912e",
	"chaos/fastcast/2/trace": "cba94dbaab97ac8ad4d4c9261e4d50daaffb1ce904c2b7e08484710f340f1306",
	"chaos/fastcast/3":       "28ee6e3afd73e07e97d50bcd054a9819288e169eaec8740d07dc7ba43f732453",
	"chaos/fastcast/3/trace": "965f33eb88fc36094887f2cb9d07e981318dfcf98b6fd28c8d44daced48c439a",
	"chaos/ftskeen/1":        "357a0b0e272e8a02637386b657b86fa3100163e4fc72c9960206da0f95d0d3b1",
	"chaos/ftskeen/1/trace":  "7bedef776474beb4f3064554fb6574ee8389928620553ce326ef650e140cb2e6",
	"chaos/ftskeen/2":        "59e90f82958c5047714f53c1af501bd66eb6ed41fc3b7154c88d4ead246277e5",
	"chaos/ftskeen/2/trace":  "00a55e55f02abc617c88ff1f72827e96cc27f2e1afeee5def5e4d631de73502d",
	"chaos/ftskeen/3":        "767719c6ea79f330665e83fa469f6432b6550ea5feb81a35fc52e3ab19740fb9",
	"chaos/ftskeen/3/trace":  "e0676336198e3fa90058dd0c65bd23caf66c5488d48fbe8f13305f0176a84b7e",
	"chaos/genmcast/1":       "aebd673c6ea6a2bdce4611fc7012414c40274cff368ea71c3683eef457fe8f78",
	"chaos/genmcast/1/trace": "2de7e5673b66d4626d69b3b749fca8211684d5f300c3122b807acd21ed650acb",
	"chaos/genmcast/2":       "2599d609cd45d88e87f233bfde7d8aba4ecb54ebd2c446a62147f2dede4bc66f",
	"chaos/genmcast/2/trace": "163f9efeb01397e51f448c8629bea97851fc76f1f4badd90c0c94ae2c9d4bc0b",
	"chaos/genmcast/3":       "acdb29474c593cb8ac1ce59221c933124a62bb393b2e61ff805da500f094355c",
	"chaos/genmcast/3/trace": "85cd0041050f7e1ab84f66cf272b4287fe692ae8ce3f3cde83670198250a682f",
	"chaos/wbcast/1":         "d83ef12f9118f6aa273a19f784576576620e3685e4d8ac46e26de91c639134ae",
	"chaos/wbcast/1/trace":   "2b0cae0a5a7c4e5b412083799d1418f1b6b4052f437a2a48897056e9eaa7a26c",
	"chaos/wbcast/2":         "d7eeab635127d2fb46a5dfd6e299ed9eafdc02425ccafdbad67c19c7cbed5aa4",
	"chaos/wbcast/2/trace":   "f1e834b7c5fda0dc29e54aabdc3a943a6433e4dc540f11f2187c36b4196ca92e",
	"chaos/wbcast/3":         "c40f80159ff1d748e5568659fe94f09ee0a5610b4446fbf5d90facc9c5df960f",
	"chaos/wbcast/3/trace":   "9d616bdce0170a8b8e4c5c75b9865d2d2f989ab7b4f154c4610c36a94163084d",
	"clock-decrease":         "4061c76c9c6df19f172fe9addf2726752a7119f482e12f136257993dc94f5a2f",
	"clock-decrease/trace":   "0d91556cd8555f62b59eddf5f7d19a5c75723577a380de82868eb26358ee91ed",
	"convoy":                 "acaa3cb3fb3cbb3faf1b0a9539be83e10c07f5db5c40c58d0365960e3265f1ad",
	"convoy/trace":           "dd66787d285ebfa27b0f0ede2f6b3b49cff8103881b615834101e9bd3a714eca",
	"failover":               "36d16c0ba317c28302eca5abfef9b7a29c315aa630ac5c2530da2668dfeacdf9",
	"failover/trace":         "8eda78e06886e2a15a0482791a97048326f5e5f0be71c27bc2dc5f8bea38b2fd",
	"latency":                "d8d8c6e65cdee6bf1e68ce5f353d48f5479bc03f484a1ebf5601445ddac17f34",
	"latency/trace":          "d8d8c6e65cdee6bf1e68ce5f353d48f5479bc03f484a1ebf5601445ddac17f34",
}

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	b := <-out
	r.Close()
	if ferr != nil {
		t.Fatalf("%v\n%s", ferr, b)
	}
	return b
}

// TestGoldenOutput pins wbcast-sim's output. Run with -v to print the
// digests of the current tree.
func TestGoldenOutput(t *testing.T) {
	runs := map[string]func() error{
		"failover":       failover,
		"clock-decrease": clockDecrease,
		"convoy":         convoy,
		"latency":        latency,
	}
	for _, proto := range []string{"wbcast", "fastcast", "ftskeen", "genmcast"} {
		for seed := int64(1); seed <= 3; seed++ {
			runs[fmt.Sprintf("chaos/%s/%d", proto, seed)] = func() error { return chaos(proto, seed, 30) }
		}
	}
	defer func() { traceOn = false }()
	for name, run := range runs {
		for _, trace := range []bool{false, true} {
			key := name
			if trace {
				key += "/trace"
			}
			traceOn = trace
			got := fmt.Sprintf("%x", sha256.Sum256(capture(t, run)))
			t.Logf("%q: %q,", key, got)
			if want := goldenOutputs[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	}
}

// TestChaosRefusesSkeen: Skeen's protocol is known, but the chaos schedule
// crashes and partitions processes, which it does not tolerate.
func TestChaosRefusesSkeen(t *testing.T) {
	err := chaos("skeen", 1, 30)
	if err == nil || !strings.Contains(err.Error(), "skeen does not tolerate") {
		t.Errorf("chaos skeen: error %v, want one saying skeen does not tolerate the schedule", err)
	}
}
