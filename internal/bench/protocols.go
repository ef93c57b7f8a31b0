package bench

import (
	"fmt"

	"wbcast/internal/blackbox"
	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/skeen"
)

// Protocol adapters used by the experiments, all without background timers
// so that runs quiesce and replay identically.
var (
	protoSkeen    harness.Protocol = skeen.Protocol{}
	protoFTSkeen  harness.Protocol = blackbox.FTSkeen(blackbox.Options{})
	protoFastCast harness.Protocol = blackbox.FastCast(blackbox.Options{})
	protoWbCast   harness.Protocol = core.Protocol{}
	// protoGenmcast runs the conflict-aware protocol under a synthetic
	// 4-class payload relation, so roughly 3/4 of random payload pairs
	// commute — enough contention to stay honest, enough commutativity for
	// early release to show up in the numbers.
	protoGenmcast harness.Protocol = core.Protocol{Generic: core.Relation(core.PayloadClasses(4))}
)

// ProtocolByName resolves a protocol name ("wbcast", "fastcast", "ftskeen",
// "skeen", "genmcast") to its harness adapter.
func ProtocolByName(name string) (harness.Protocol, error) {
	switch name {
	case "skeen":
		return protoSkeen, nil
	case "ftskeen":
		return protoFTSkeen, nil
	case "fastcast":
		return protoFastCast, nil
	case "wbcast":
		return protoWbCast, nil
	case "genmcast":
		return protoGenmcast, nil
	default:
		return nil, fmt.Errorf("bench: unknown protocol %q (want wbcast, fastcast, ftskeen, skeen or genmcast)", name)
	}
}
