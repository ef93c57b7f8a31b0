package wbcast

import (
	"testing"

	"wbcast/internal/mcast"
)

// TestConflictRelationPerReplica: each Genmcast replica holds its own
// conflict relation. Installing one on replica 0 rebinds replica 0 only:
// the other replicas of the Cluster still report every pair conflicting.
// A WhiteBox replica has no relation, and the call reports false.
func TestConflictRelationPerReplica(t *testing.T) {
	never := func(a, b []byte) bool { return false }
	x := AppMsg{ID: mcast.MakeMsgID(1, 1), Payload: []byte("x")}
	y := AppMsg{ID: mcast.MakeMsgID(1, 2), Payload: []byte("y")}

	c, err := New(Config{Groups: 1, Replicas: 3, Protocol: Genmcast})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Replica(0).SetConflictRelation(never) {
		t.Fatal("Genmcast: SetConflictRelation on replica 0 returned false")
	}
	if c.Replica(0).conflicts.Conflicts(x, y) {
		t.Error("replica 0 reports the pair conflicting after its relation was set")
	}
	for _, pid := range []ProcessID{1, 2} {
		if !c.Replica(pid).conflicts.Conflicts(x, y) {
			t.Errorf("replica %d was rebound by the call on replica 0", pid)
		}
	}

	wb, err := New(Config{Groups: 1, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer wb.Close()
	if wb.Replica(0).SetConflictRelation(never) {
		t.Error("WhiteBox: SetConflictRelation returned true")
	}
}
