package kvstore

import (
	"fmt"
	"maps"
	"slices"

	"wbcast/internal/mcast"
)

// History is one engine's applied log, as collected by the chaos tests.
type History struct {
	PID    mcast.ProcessID
	Group  mcast.GroupID
	Log    []Applied
	Digest uint64
}

// pos identifies one applied payload globally: the original message ID plus
// the intra-batch sub-index (batched payloads keep their own IDs, but an ID
// is unique per payload anyway — the pair is belt and braces).
type pos struct {
	id  mcast.MsgID
	sub int
}

// CheckPartial validates shard histories against the relaxed contract the
// service inherits from conflict-aware generic multicast (the genmcast
// protocol). Deliveries may be applied out of global-stamp order, so the
// strict per-replica order and intra-shard prefix checks of Check relax to:
//
//  1. within each replica, every pair of *conflicting* applied operations
//     appears in (GTS, Sub) stamp order; commuting operations may
//     interleave freely;
//  2. stamp agreement, exactly-once and destination membership, as Check;
//  3. replicas of one shard that applied the same *set* of stamps must
//     have equal state digests — conflicting operations are stamp-ordered
//     at both (by 1) and commuting reorderings cannot be observed in the
//     final state;
//  4. with complete set, atomicity against the per-shard union of applied
//     stamps, as Check's longest-log rule.
//
// conflicts is the payload-level relation the protocol ran under (nil means
// every pair conflicts). Like Check, it returns the first violation found.
func CheckPartial(hs []History, complete bool, conflicts func(a, b []byte) bool) error {
	if conflicts == nil {
		conflicts = func(a, b []byte) bool { return true }
	}
	stampOf := make(map[pos]mcast.Timestamp)
	type shardState struct {
		set    map[stamp]bool
		digest uint64
		pid    mcast.ProcessID
	}
	byGroup := make(map[mcast.GroupID][]shardState)
	union := make(map[mcast.GroupID]map[pos]bool)
	for _, h := range hs {
		seen := make(map[pos]bool, len(h.Log))
		set := make(map[stamp]bool, len(h.Log))
		for i, a := range h.Log {
			p := pos{a.ID, a.Sub}
			if seen[p] {
				return fmt.Errorf("kvstore: replica %d applied %v sub %d twice", h.PID, a.ID, a.Sub)
			}
			seen[p] = true
			set[stamp{gts: a.GTS, sub: a.Sub}] = true
			if ts, ok := stampOf[p]; ok && ts != a.GTS {
				return fmt.Errorf("kvstore: %v sub %d stamped %v at replica %d but %v elsewhere",
					a.ID, a.Sub, a.GTS, h.PID, ts)
			}
			stampOf[p] = a.GTS
			if !a.Dest.Contains(h.Group) {
				return fmt.Errorf("kvstore: replica %d (shard %d) applied %v addressed to %v",
					h.PID, h.Group, a.ID, a.Dest)
			}
			// Partial order: a must not be stamp-below any earlier applied
			// conflicting entry.
			for j := 0; j < i; j++ {
				b := h.Log[j]
				if before(a, b) && conflicts(b.Payload, a.Payload) {
					return fmt.Errorf("kvstore: replica %d applied conflicting %v/(%v,%d) after %v/(%v,%d): stamp order inverted",
						h.PID, a.ID, a.GTS, a.Sub, b.ID, b.GTS, b.Sub)
				}
			}
		}
		byGroup[h.Group] = append(byGroup[h.Group], shardState{set: set, digest: h.Digest, pid: h.PID})
		if union[h.Group] == nil {
			union[h.Group] = make(map[pos]bool)
		}
		for p := range seen {
			union[h.Group][p] = true
		}
	}

	for _, g := range slices.Sorted(maps.Keys(byGroup)) {
		states := byGroup[g]
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				a, b := states[i], states[j]
				if sameStampSet(a.set, b.set) && a.digest != b.digest {
					return fmt.Errorf("kvstore: shard %d: replicas %d and %d applied the same set but digests differ (%#x vs %#x)",
						g, a.pid, b.pid, a.digest, b.digest)
				}
			}
		}
	}

	if complete {
		return atomic(hs, union)
	}
	return nil
}

func sameStampSet(a, b map[stamp]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if !b[s] {
			return false
		}
	}
	return true
}

// Check validates a set of shard histories against the guarantees the
// key-value service inherits from atomic multicast:
//
//  1. each replica applied deliveries in strictly increasing (GTS, Sub)
//     order, with no payload applied twice;
//  2. every payload was stamped with one global position — the same GTS
//     everywhere it was applied, across shards;
//  3. replicas of one shard applied consistent prefixes of one sequence,
//     and equal-length logs imply equal state digests;
//  4. with complete set, every multi-shard operation present anywhere was
//     applied by every shard it addressed (only meaningful after the
//     system has quiesced; under an ongoing workload trailing operations
//     may legitimately be mid-flight).
//
// Together 2-4 are the atomicity acceptance check: a transaction spanning
// several shards occupies a single position of the global order and either
// executes at all its shards or none.
//
// Check returns the first violation found, taking the histories in the
// order given and the shards in ascending order, so a replayed run reports
// the same one.
func Check(hs []History, complete bool) error {
	stamp := make(map[pos]mcast.Timestamp)
	for _, h := range hs {
		var last Applied
		seen := make(map[pos]bool, len(h.Log))
		for i, a := range h.Log {
			if i > 0 && !before(last, a) {
				return fmt.Errorf("kvstore: replica %d: order violation at %d: %v/(%v,%d) then %v/(%v,%d)",
					h.PID, i, last.ID, last.GTS, last.Sub, a.ID, a.GTS, a.Sub)
			}
			last = a
			p := pos{a.ID, a.Sub}
			if seen[p] {
				return fmt.Errorf("kvstore: replica %d applied %v sub %d twice", h.PID, a.ID, a.Sub)
			}
			seen[p] = true
			if ts, ok := stamp[p]; ok && ts != a.GTS {
				return fmt.Errorf("kvstore: %v sub %d stamped %v at replica %d but %v elsewhere",
					a.ID, a.Sub, a.GTS, h.PID, ts)
			}
			stamp[p] = a.GTS
			if !a.Dest.Contains(h.Group) {
				return fmt.Errorf("kvstore: replica %d (shard %d) applied %v addressed to %v",
					h.PID, h.Group, a.ID, a.Dest)
			}
		}
	}

	byGroup := make(map[mcast.GroupID][]History)
	for _, h := range hs {
		byGroup[h.Group] = append(byGroup[h.Group], h)
	}
	for _, g := range slices.Sorted(maps.Keys(byGroup)) {
		ghs := byGroup[g]
		for i := 0; i < len(ghs); i++ {
			for j := i + 1; j < len(ghs); j++ {
				a, b := ghs[i], ghs[j]
				for k := range min(len(a.Log), len(b.Log)) {
					if a.Log[k].ID != b.Log[k].ID || a.Log[k].Sub != b.Log[k].Sub || a.Log[k].GTS != b.Log[k].GTS {
						return fmt.Errorf("kvstore: shard %d: replicas %d and %d diverge at %d: %v vs %v",
							g, a.PID, b.PID, k, a.Log[k].ID, b.Log[k].ID)
					}
				}
				if len(a.Log) == len(b.Log) && a.Digest != b.Digest {
					return fmt.Errorf("kvstore: shard %d: replicas %d and %d applied the same log but digests differ (%#x vs %#x)",
						g, a.PID, b.PID, a.Digest, b.Digest)
				}
			}
		}
	}

	if complete {
		// Any group's longest log is that shard's authoritative sequence
		// once quiesced; every multi-shard op must be in all of them.
		longest := make(map[mcast.GroupID]map[pos]bool)
		for g, ghs := range byGroup {
			var max History
			for _, h := range ghs {
				if len(h.Log) > len(max.Log) {
					max = h
				}
			}
			set := make(map[pos]bool, len(max.Log))
			for _, a := range max.Log {
				set[pos{a.ID, a.Sub}] = true
			}
			longest[g] = set
		}
		return atomic(hs, longest)
	}
	return nil
}

// atomic checks that every payload applied anywhere is in the applied set
// of each shard under test it was addressed to.
func atomic(hs []History, applied map[mcast.GroupID]map[pos]bool) error {
	for _, h := range hs {
		for _, a := range h.Log {
			for _, g := range a.Dest {
				set, hosted := applied[g]
				if !hosted {
					continue // shard not under test
				}
				if !set[pos{a.ID, a.Sub}] {
					return fmt.Errorf("kvstore: %v sub %d (dest %v) applied at shard %d but missing at shard %d: transaction not atomic",
						a.ID, a.Sub, a.Dest, h.Group, g)
				}
			}
		}
	}
	return nil
}

// before reports strict (GTS, Sub) order between applied records.
func before(a, b Applied) bool {
	if a.GTS != b.GTS {
		return a.GTS.Less(b.GTS)
	}
	return a.Sub < b.Sub
}
