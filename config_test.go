package wbcast_test

import (
	"strings"
	"testing"
	"time"

	"wbcast"
	"wbcast/internal/core"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/protocols"
	"wbcast/internal/wal"
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

// TestProtocolTable holds the internal protocol table, which every replica
// is built from, to the public surface: the same names in the enum's order,
// the timers core.DefaultConfig derives from δ, a durable replica from a
// cold store for every fault-tolerant protocol, and Skeen's singleton rule
// with the message Validate has always given.
func TestProtocolTable(t *testing.T) {
	ps := allProtocols(t)
	if len(ps) != len(protocols.All) {
		t.Fatalf("%d public protocols, %d table entries", len(ps), len(protocols.All))
	}
	for i, e := range protocols.All {
		if p, err := wbcast.ParseProtocol(e.Name()); err != nil || p != ps[i] {
			t.Errorf("table entry %d %q parses to %v, %v; want %v", i, e.Name(), p, err, ps[i])
		}
	}

	const delta = time.Millisecond
	dc := core.DefaultConfig(0, nil, delta)
	want := map[node.TimerKind]time.Duration{
		node.TimerRetry:     dc.RetryInterval,
		node.TimerHeartbeat: dc.HeartbeatInterval,
		// The initial leader's first suspicion leg: a grace of half a
		// heartbeat follows it (node.Suspicion).
		node.TimerSuspect: dc.SuspectTimeout - dc.HeartbeatInterval/2,
		node.TimerGC:      dc.GCInterval,
	}
	top := mcast.UniformTopology(2, 3)
	m := mcast.AppMsg{ID: mcast.MakeMsgID(6, 1), Dest: mcast.NewGroupSet(0, 1)}
	// timers returns the timers the initial leader of group 0 arms when it
	// starts and is handed a multicast.
	timers := func(e protocols.Protocol, rs *wal.State) []node.SetTimer {
		h, err := e.New(0, top, nil, rs, false)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		var fx node.Effects
		h.Handle(node.Start{}, &fx)
		h.Handle(node.Recv{From: 6, Msg: msgs.Multicast{M: m}}, &fx)
		return fx.Timers
	}
	for _, e := range protocols.All {
		if !e.FaultTolerant {
			if _, err := e.New(0, mcast.UniformTopology(2, 1), nil, wal.NewState(), false); err == nil {
				t.Errorf("%s built a durable replica", e.Name())
			}
			continue
		}
		if ts := timers(e.With(protocols.Options{}), nil); len(ts) > 0 {
			t.Errorf("%s without a δ armed %v", e.Name(), ts)
		}
		armed := map[node.TimerKind]bool{}
		for _, tm := range timers(e.With(protocols.Options{Delta: delta}), wal.NewState()) {
			armed[tm.Kind] = true
			if tm.After != want[tm.Kind] {
				t.Errorf("%s: timer %d after %v, want %v", e.Name(), tm.Kind, tm.After, want[tm.Kind])
			}
		}
		if !armed[node.TimerRetry] || !armed[node.TimerHeartbeat] || !armed[node.TimerSuspect] {
			t.Errorf("%s armed %v: no retry, heartbeat or suspicion timer", e.Name(), armed)
		}
	}

	err := wbcast.Config{Groups: 2, Protocol: wbcast.Skeen}.Validate()
	if want := "wbcast: the skeen protocol requires singleton groups (Replicas must be 1, got 3); use ftskeen for replicated groups"; err == nil || err.Error() != want {
		t.Errorf("skeen with groups of 3: %v, want %q", err, want)
	}
	if err := (wbcast.Config{Groups: 2, Protocol: wbcast.Skeen, Replicas: 1}).Validate(); err != nil {
		t.Errorf("skeen with singleton groups: %v", err)
	}
	// Skeen keeps no protocol state, so a store could not bring a restarted
	// replica back to where its application left off.
	err = wbcast.Config{Groups: 2, Protocol: wbcast.Skeen, Replicas: 1, Storage: wbcast.MemoryStorage()}.Validate()
	if want := "wbcast: the skeen protocol keeps no durable state and cannot recover from Config.Storage"; err == nil || err.Error() != want {
		t.Errorf("skeen with a store: %v, want %q", err, want)
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
