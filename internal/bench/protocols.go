package bench

import (
	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/protocols"
)

// ProtocolByName resolves the name of a protocol of the table
// (internal/protocols) to its harness adapter, without background timers so
// that runs quiesce and replay identically. A conflict-aware protocol runs
// under a synthetic 4-class payload relation, so roughly 3/4 of random
// payload pairs commute — enough contention to stay honest, enough
// commutativity for early release to show up in the numbers.
func ProtocolByName(name string) (harness.Protocol, error) {
	p, err := protocols.ByName(name)
	if err != nil {
		return nil, err
	}
	return p.With(protocols.Options{Conflicts: core.Relation(core.PayloadClasses(4))}), nil
}
