package mcast

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMsgIDPacking(t *testing.T) {
	cases := []struct {
		sender ProcessID
		seq    uint32
	}{
		{0, 0}, {1, 1}, {42, 7}, {1 << 20, 1 << 30}, {2147483647, 4294967295},
	}
	for _, c := range cases {
		id := MakeMsgID(c.sender, c.seq)
		if id.Sender() != c.sender {
			t.Errorf("MakeMsgID(%d,%d).Sender() = %d", c.sender, c.seq, id.Sender())
		}
		if id.Seq() != c.seq {
			t.Errorf("MakeMsgID(%d,%d).Seq() = %d", c.sender, c.seq, id.Seq())
		}
	}
}

func TestMsgIDUniqueness(t *testing.T) {
	seen := map[MsgID]bool{}
	for s := ProcessID(0); s < 10; s++ {
		for q := uint32(0); q < 100; q++ {
			id := MakeMsgID(s, q)
			if seen[id] {
				t.Fatalf("duplicate MsgID for sender=%d seq=%d", s, q)
			}
			seen[id] = true
		}
	}
}

func TestTimestampOrder(t *testing.T) {
	ts := []Timestamp{
		{}, {Time: 1, Group: 0}, {Time: 1, Group: 1}, {Time: 2, Group: 0}, {Time: 2, Group: 5},
	}
	for i := range ts {
		for j := range ts {
			wantLess := i < j
			if got := ts[i].Less(ts[j]); got != wantLess {
				t.Errorf("%v.Less(%v) = %v, want %v", ts[i], ts[j], got, wantLess)
			}
		}
	}
	if !ZeroTS.IsZero() {
		t.Error("ZeroTS.IsZero() = false")
	}
	if ZeroTS.String() != "⊥" {
		t.Errorf("ZeroTS.String() = %q", ZeroTS.String())
	}
}

// Property: Less is a strict total order (irreflexive, asymmetric,
// transitive, total) on timestamps.
func TestTimestampTotalOrderProperty(t *testing.T) {
	f := func(a, b, c Timestamp) bool {
		// Irreflexive.
		if a.Less(a) {
			return false
		}
		// Total: exactly one of <, =, > holds.
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a == b {
			n++
		}
		if n != 1 {
			return false
		}
		// Transitive.
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		// Compare consistent with Less.
		if (a.Compare(b) == -1) != a.Less(b) || (a.Compare(b) == 0) != (a == b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBallotOrder(t *testing.T) {
	bs := []Ballot{
		{}, {N: 1, Proc: 0}, {N: 1, Proc: 3}, {N: 2, Proc: 1},
	}
	for i := range bs {
		for j := range bs {
			wantLess := i < j
			if got := bs[i].Less(bs[j]); got != wantLess {
				t.Errorf("%v.Less(%v) = %v, want %v", bs[i], bs[j], got, wantLess)
			}
		}
	}
	if (Ballot{N: 7, Proc: 3}).Leader() != 3 {
		t.Error("Leader() should return Proc")
	}
}

func TestGroupSetNormalisation(t *testing.T) {
	gs := NewGroupSet(3, 1, 3, 0, 1)
	want := GroupSet{0, 1, 3}
	if !gs.Equal(want) {
		t.Fatalf("NewGroupSet = %v, want %v", gs, want)
	}
	for _, g := range want {
		if !gs.Contains(g) {
			t.Errorf("Contains(%d) = false", g)
		}
	}
	if gs.Contains(2) || gs.Contains(4) {
		t.Error("Contains reported absent group")
	}
}

// TestProcSet: a set built by Add holds exactly what was added, across word
// boundaries.
func TestProcSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var s ProcSet
		want := map[ProcessID]bool{}
		for i := rng.Intn(20); i > 0; i-- {
			p := ProcessID(rng.Intn(200))
			s = s.Add(p)
			want[p] = true
		}
		for p := ProcessID(0); p < 260; p++ {
			if s.Has(p) != want[p] {
				t.Fatalf("round %d: Has(%d) = %v", round, p, s.Has(p))
			}
		}
	}
}

func TestAppMsgClone(t *testing.T) {
	m := AppMsg{ID: MakeMsgID(9, 1), Dest: NewGroupSet(0, 1), Payload: []byte("hello")}
	c := m.Clone()
	c.Payload[0] = 'X'
	c.Dest[0] = 7
	if m.Payload[0] != 'h' || m.Dest[0] != 0 {
		t.Error("Clone shares memory with original")
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology([][]ProcessID{{}}); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewTopology([][]ProcessID{{0, 1}}); err == nil {
		t.Error("even group accepted")
	}
	if _, err := NewTopology([][]ProcessID{{0, 1, 2}, {2, 3, 4}}); err == nil {
		t.Error("overlapping groups accepted")
	}
	if _, err := NewTopology([][]ProcessID{{0, 1, 2}, {3, 4, 5}}); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
}

func TestUniformTopology(t *testing.T) {
	top := UniformTopology(3, 5)
	if top.NumGroups() != 3 || top.NumReplicas() != 15 {
		t.Fatalf("got %d groups, %d replicas", top.NumGroups(), top.NumReplicas())
	}
	if top.QuorumSize(0) != 3 {
		t.Errorf("QuorumSize = %d, want 3", top.QuorumSize(0))
	}
	for g := GroupID(0); g < 3; g++ {
		for i, p := range top.Members(g) {
			if top.GroupOf(p) != g {
				t.Errorf("GroupOf(%d) = %d, want %d", p, top.GroupOf(p), g)
			}
			if top.Rank(p) != i {
				t.Errorf("Rank(%d) = %d, want %d", p, top.Rank(p), i)
			}
		}
	}
	if top.GroupOf(100) != NoGroup {
		t.Error("GroupOf(non-replica) should be NoGroup")
	}
	if top.IsReplica(100) {
		t.Error("IsReplica(non-replica) = true")
	}
	if top.Rank(100) != -1 {
		t.Error("Rank(non-replica) != -1")
	}
	if top.InitialLeader(1) != 5 {
		t.Errorf("InitialLeader(1) = %d, want 5", top.InitialLeader(1))
	}
	ib := top.InitialBallot(2)
	if ib.N != 1 || ib.Proc != 10 {
		t.Errorf("InitialBallot(2) = %v", ib)
	}
	ag := top.AllGroups()
	if !ag.Equal(NewGroupSet(0, 1, 2)) {
		t.Errorf("AllGroups = %v", ag)
	}
}

// Property: sorting by Less then checking adjacent pairs yields a sorted,
// stable sequence — Less must be usable as a sort predicate.
func TestTimestampSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(100)
		tss := make([]Timestamp, n)
		for i := range tss {
			tss[i] = Timestamp{Time: uint64(rng.Intn(20)), Group: GroupID(rng.Intn(5))}
		}
		sort.Slice(tss, func(i, j int) bool { return tss[i].Less(tss[j]) })
		for i := 1; i < len(tss); i++ {
			if tss[i].Less(tss[i-1]) {
				t.Fatalf("not sorted at %d: %v > %v", i, tss[i-1], tss[i])
			}
		}
	}
}
