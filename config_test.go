package wbcast_test

import (
	"strings"
	"testing"
	"time"

	"wbcast"
)

// allProtocols enumerates every defined Protocol value by walking from the
// first (the zero value is the "default" sentinel, not a protocol) until
// String falls back to the "Protocol(n)" form — so the round-trip test below
// cannot silently go stale when a protocol is added.
func allProtocols(t *testing.T) []wbcast.Protocol {
	t.Helper()
	var ps []wbcast.Protocol
	for p := wbcast.WhiteBox; ; p++ {
		if strings.HasPrefix(p.String(), "Protocol(") {
			break
		}
		ps = append(ps, p)
	}
	return ps
}

func TestParseProtocol(t *testing.T) {
	ps := allProtocols(t)
	want := []wbcast.Protocol{wbcast.WhiteBox, wbcast.FastCast, wbcast.FTSkeen, wbcast.Skeen, wbcast.Genmcast}
	if len(ps) != len(want) {
		t.Fatalf("enumeration found %d protocols, the known list has %d — update this test", len(ps), len(want))
	}
	// Every valid name round-trips through String, exhaustively.
	for i, p := range ps {
		if p != want[i] {
			t.Fatalf("protocol %d is %v, want %v", i, p, want[i])
		}
		got, err := wbcast.ParseProtocol(p.String())
		if err != nil {
			t.Fatalf("ParseProtocol(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParseProtocol(%q) = %v, want %v", p.String(), got, p)
		}
	}
	// Names must be unique: a duplicate would make ParseProtocol ambiguous.
	names := make(map[string]wbcast.Protocol, len(ps))
	for _, p := range ps {
		if prev, dup := names[p.String()]; dup {
			t.Fatalf("protocols %v and %v share the name %q", prev, p, p.String())
		}
		names[p.String()] = p
	}
	for _, bad := range []string{"", "WBCAST", "wbcast ", "paxos", "white-box", "Genmcast", "generic"} {
		if _, err := wbcast.ParseProtocol(bad); err == nil {
			t.Errorf("ParseProtocol(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "unknown protocol") {
			t.Errorf("ParseProtocol(%q) error %q lacks context", bad, err)
		}
	}
}

func TestProtocolStringUnknown(t *testing.T) {
	if s := wbcast.Protocol(99).String(); !strings.Contains(s, "99") {
		t.Errorf("Protocol(99).String() = %q", s)
	}
}

// TestValidateEdgeCases covers the rejections Validate must make beyond
// the basics already in TestConfigValidation: unknown protocol values,
// negative knobs, and the per-protocol and per-transport rules.
func TestValidateEdgeCases(t *testing.T) {
	valid := wbcast.Config{Groups: 2}
	cases := []struct {
		name   string
		mutate func(*wbcast.Config)
		errHas string
	}{
		{"unknown protocol value", func(c *wbcast.Config) { c.Protocol = wbcast.Protocol(42) }, "unknown protocol"},
		{"negative groups", func(c *wbcast.Config) { c.Groups = -1 }, "Groups"},
		{"negative replicas", func(c *wbcast.Config) { c.Replicas = -3 }, "Replicas"},
		{"even replicas", func(c *wbcast.Config) { c.Replicas = 4 }, "Replicas"},
		{"negative delta", func(c *wbcast.Config) { c.Delta = -time.Millisecond }, "Delta"},
		{"latency on tcp", func(c *wbcast.Config) {
			c.Latency = wbcast.LAN()
			c.Transport = wbcast.TCP("", map[wbcast.ProcessID]string{})
		}, "Latency"},
		{"conflicts without genmcast", func(c *wbcast.Config) {
			c.Conflicts = func(a, b []byte) bool { return true }
		}, "requires the genmcast protocol"},
		{"conflicts on skeen", func(c *wbcast.Config) {
			c.Protocol = wbcast.Skeen
			c.Replicas = 1
			c.Conflicts = func(a, b []byte) bool { return true }
		}, "requires the genmcast protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("error %q does not mention %q", err, tc.errHas)
			}
		})
	}

	// Genmcast accepts a conflict relation — and works without one (nil
	// treats every pair as conflicting, i.e. plain atomic multicast).
	for _, rel := range []wbcast.ConflictRelation{nil, func(a, b []byte) bool { return false }} {
		cfg := valid
		cfg.Protocol = wbcast.Genmcast
		cfg.Conflicts = rel
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected genmcast (Conflicts nil=%v): %v", rel == nil, err)
		}
	}

	// The same latency profile is fine on the non-TCP transports.
	for _, tr := range []wbcast.Transport{wbcast.InProcess(), wbcast.Simulated()} {
		cfg := valid
		cfg.Latency = wbcast.LAN()
		cfg.Transport = tr
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected Latency on %T: %v", tr, err)
		}
		tr.Close()
	}

	// Validate fills defaults without mutating the caller's copy.
	cfg := valid
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 0 || cfg.Protocol != 0 || cfg.Delta != 0 {
		t.Errorf("Validate mutated its receiver: %+v", cfg)
	}
}

// TestFaultPlanValidation: a plan with a negative trigger time is rejected
// when the transport opens.
func TestFaultPlanValidation(t *testing.T) {
	bad := []*wbcast.FaultPlan{
		wbcast.NewFaultPlan(), // negative trigger time
		wbcast.NewFaultPlan(), // out-of-range probability
		wbcast.NewFaultPlan(), // negative skew factor
	}
	bad[0].At(-time.Second).Crash(0)
	bad[1].At(time.Second).Link(0, 1, wbcast.LinkFaults{DropProb: 1.5})
	bad[2].At(time.Second).ClockSkew(0, -1)
	for i, plan := range bad {
		tr := wbcast.SimulatedWith(wbcast.SimulatedOptions{Faults: plan})
		if _, err := wbcast.New(wbcast.Config{Groups: 1, Transport: tr}); err == nil {
			t.Errorf("invalid plan %d accepted", i)
		}
	}
}
