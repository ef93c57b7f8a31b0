package kvstore

import (
	"cmp"
	"fmt"
	"slices"

	"wbcast/internal/check"
	"wbcast/internal/mcast"
)

// History is one engine's applied log, as collected by the chaos tests.
type History struct {
	PID    mcast.ProcessID
	Group  mcast.GroupID
	Log    []Applied
	Digest uint64
}

// Check validates a set of shard histories against the guarantees the
// key-value service inherits from atomic multicast. Each replica's applied
// log goes through a check.Monitor as that replica's delivery sequence, so
// validity, exactly-once, stamp agreement and uniqueness, and the order
// contract are the Monitor's: with conflicts nil (an ordered engine),
// strictly increasing stamps per replica and gap-free shards; otherwise
// (an unordered engine) conflicting operations stamp-ordered at every
// replica under that payload relation. Check adds what only the
// application can tell:
//
//  1. replicas of one shard that applied the same log — in an unordered
//     engine, the same set of stamps — have equal state digests;
//  2. with complete set, every multi-shard operation present anywhere was
//     applied by every shard under test it addressed (only meaningful after
//     the system has quiesced; under an ongoing workload trailing
//     operations may legitimately be mid-flight).
//
// Together these are the atomicity acceptance check: a transaction
// spanning several shards occupies a single position of the global order
// and either executes at all its shards or none.
//
// Check returns the first violation found. It takes the shards in
// ascending order and each shard's replicas in ascending pid order, first
// the digests and then the Monitor, so a replayed run reports the same one.
func Check(hs []History, complete bool, conflicts func(a, b []byte) bool) error {
	hs = slices.SortedFunc(slices.Values(hs), func(a, b History) int {
		return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.PID, b.PID))
	})
	groupOf := make(map[mcast.ProcessID]mcast.GroupID, len(hs))
	for _, h := range hs {
		groupOf[h.PID] = h.Group
	}
	var rel func(a, b mcast.AppMsg) bool
	if conflicts != nil {
		rel = func(a, b mcast.AppMsg) bool { return conflicts(a.Payload, b.Payload) }
	}
	mo := check.NewMonitor(func(p mcast.ProcessID) mcast.GroupID {
		if g, ok := groupOf[p]; ok {
			return g
		}
		return mcast.NoGroup
	}, rel)
	applied := make(map[mcast.GroupID]map[mcast.MsgID]bool)
	for start := 0; start < len(hs); {
		g := hs[start].Group
		end := start + 1
		for end < len(hs) && hs[end].Group == g {
			end++
		}
		shard := hs[start:end]
		if err := digestsAgree(shard, conflicts != nil); err != nil {
			return err
		}
		applied[g] = make(map[mcast.MsgID]bool)
		for _, h := range shard {
			for _, a := range h.Log {
				m := mcast.AppMsg{ID: a.ID, Dest: a.Dest, Payload: a.Payload}
				mo.NoteSubmit(a.ID.Sender(), m)
				mo.NoteDelivery(h.PID, mcast.Delivery{Msg: m, GTS: a.GTS, Sub: a.Sub})
				applied[g][a.ID] = true
			}
			if errs := mo.Errs(); len(errs) > 0 {
				return fmt.Errorf("kvstore: shard %d: %w", g, errs[0])
			}
		}
		start = end
	}
	if complete {
		return atomic(hs, applied)
	}
	return nil
}

// digestsAgree checks that replicas of one shard that applied the same log
// (the same set of stamps when unordered) have equal digests.
func digestsAgree(shard []History, unordered bool) error {
	logs := make([][]Applied, len(shard))
	for i, h := range shard {
		logs[i] = h.Log
		if unordered {
			logs[i] = slices.SortedFunc(slices.Values(h.Log), func(a, b Applied) int {
				return cmp.Or(a.GTS.Compare(b.GTS), cmp.Compare(a.Sub, b.Sub))
			})
		}
	}
	same := func(a, b Applied) bool {
		return a.GTS == b.GTS && a.Sub == b.Sub && (unordered || a.ID == b.ID)
	}
	what := "log"
	if unordered {
		what = "set"
	}
	for i := range shard {
		for j := i + 1; j < len(shard); j++ {
			if a, b := shard[i], shard[j]; a.Digest != b.Digest && slices.EqualFunc(logs[i], logs[j], same) {
				return fmt.Errorf("kvstore: shard %d: replicas %d and %d applied the same %s but digests differ (%#x vs %#x)",
					a.Group, a.PID, b.PID, what, a.Digest, b.Digest)
			}
		}
	}
	return nil
}

// atomic checks that every payload applied anywhere is in the applied set
// of each shard under test it was addressed to.
func atomic(hs []History, applied map[mcast.GroupID]map[mcast.MsgID]bool) error {
	for _, h := range hs {
		for _, a := range h.Log {
			for _, g := range a.Dest {
				set, hosted := applied[g]
				if !hosted {
					continue // shard not under test
				}
				if !set[a.ID] {
					return fmt.Errorf("kvstore: %v sub %d (dest %v) applied at shard %d but missing at shard %d: transaction not atomic",
						a.ID, a.Sub, a.Dest, h.Group, g)
				}
			}
		}
	}
	return nil
}
