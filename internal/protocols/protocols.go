// Package protocols is the one table of the multicast protocols this module
// implements, and their one constructor. Each protocol has one entry: its
// name, the properties callers branch on (fault tolerance,
// conflict-awareness), the paper's latencies, and how to build a replica.
// Every caller — the public package, the latency table, wbcast-sim and the
// chaos suites — builds its replicas through Protocol.New, fresh, traced,
// durable or restarted alike, and every timer comes from
// core.DefaultConfig.
//
// A Protocol is also the adapter internal/harness runs (harness.Builder,
// structurally): the harness does not import this package, because the
// protocol packages' own tests import the harness.
package protocols

import (
	"fmt"
	"strings"
	"time"

	"wbcast/internal/blackbox"
	"wbcast/internal/core"
	"wbcast/internal/mcast"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/skeen"
	"wbcast/internal/wal"
)

// Protocol is one entry of the table, bound to its Options by With.
type Protocol struct {
	name string
	// FaultTolerant: groups of 2f+1 replicas tolerate f crashes, run the
	// timers of core.DefaultConfig and persist to a store when given one.
	// False only for skeen, which requires singleton groups and assumes
	// reliable processes: it runs no timers and keeps no durable state.
	FaultTolerant bool
	// ConflictAware: only conflicting messages are mutually ordered, under
	// the relation Options.Conflicts holds (generic multicast).
	ConflictAware bool
	// Solo and Convoy are the paper's collision-free and failure-free
	// delivery latencies (§VI), in δ; zero where the paper gives none.
	Solo, Convoy float64

	build func(core.Config) (node.Handler, error)
	opts  Options
}

// Options are what a replica's construction takes beyond its identity,
// instrumentation and recovered state.
type Options struct {
	// Delta derives every timer: core.DefaultConfig(Delta). Zero disables
	// them (retries, heartbeats, failure detection, GC), so runs quiesce.
	Delta time.Duration
	// Conflicts holds a conflict-aware protocol's relation; the others
	// ignore it. One holder serves every replica built from the same
	// binding, so rebinding its relation rebinds them all.
	Conflicts *mcast.ConflictHolder
}

// All lists the protocols in the order of the public wbcast.Protocol enum
// (WhiteBox first), under the names wbcast.ParseProtocol accepts.
var All = []Protocol{
	{name: "wbcast", FaultTolerant: true, Solo: 3, Convoy: 5, build: whiteBox},
	{name: "fastcast", FaultTolerant: true, Solo: 4, Convoy: 8, build: blackbox.FastCast},
	{name: "ftskeen", FaultTolerant: true, Solo: 6, Convoy: 12, build: blackbox.FTSkeen},
	{name: "skeen", Solo: 2, Convoy: 4, build: func(c core.Config) (node.Handler, error) {
		return skeen.New(c.PID, c.Top)
	}},
	{name: "genmcast", FaultTolerant: true, ConflictAware: true, build: whiteBox},
}

func whiteBox(c core.Config) (node.Handler, error) { return core.NewReplica(c) }

// ByName returns the protocol called name, unbound.
func ByName(name string) (Protocol, error) {
	names := make([]string, len(All))
	for i, p := range All {
		if p.name == name {
			return p, nil
		}
		names[i] = p.name
	}
	return Protocol{}, fmt.Errorf("unknown protocol %q (want one of %s)", name, strings.Join(names, ", "))
}

// Name returns the protocol's name.
func (p Protocol) Name() string { return p.name }

// With returns p bound to o. A conflict-aware protocol given no holder gets
// one whose relation makes every pair conflict.
func (p Protocol) With(o Options) Protocol {
	if !p.ConflictAware {
		o.Conflicts = nil
	} else if o.Conflicts == nil {
		o.Conflicts = core.Relation(nil)
	}
	p.opts = o
	return p
}

// New builds replica pid of top. po instruments it (nil: not at all). rs,
// when non-nil, makes the replica durable: it persists every
// crash-surviving state transition and replays rs, the folded state of its
// store, before it joins; a protocol that is not fault-tolerant refuses it.
// appHorizon is core.Config.AppGCHorizon.
func (p Protocol) New(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto, rs *wal.State, appHorizon bool) (node.Handler, error) {
	switch {
	case rs != nil && !p.FaultTolerant:
		return nil, fmt.Errorf("%s keeps no durable state", p.name)
	case p.ConflictAware && p.opts.Conflicts == nil:
		return nil, fmt.Errorf("%s: no conflict relation bound (With)", p.name)
	}
	c := core.DefaultConfig(pid, top, p.opts.Delta)
	c.Obs, c.Durable, c.Recovered = po, rs != nil, rs
	c.AppGCHorizon, c.Conflicts = appHorizon, p.opts.Conflicts
	return p.build(c)
}

// NewReplica builds replica pid of top, volatile and uninstrumented.
func (p Protocol) NewReplica(pid mcast.ProcessID, top *mcast.Topology) (node.Handler, error) {
	return p.New(pid, top, nil, nil, false)
}

// Conflicts returns the holder of a conflict-aware protocol's relation, nil
// for the others.
func (p Protocol) Conflicts() *mcast.ConflictHolder { return p.opts.Conflicts }
