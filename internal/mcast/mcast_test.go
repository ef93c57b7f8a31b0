package mcast

import (
	"math/rand"
	"slices"
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

// TestTopologyValidation: a group of 2f+1 replicas is the one shape
// UniformTopology accepts.
func TestTopologyValidation(t *testing.T) {
	for _, n := range []int{0, -1, 2, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UniformTopology(2, %d) accepted", n)
				}
			}()
			UniformTopology(2, n)
		}()
	}
	UniformTopology(2, 3)
}

// TestUniformTopology holds the topology's arithmetic to a brute-force scan
// of the member lists, for every replica, NoProcess and the first client.
func TestUniformTopology(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {10, 3}} {
		k, n := shape[0], shape[1]
		top := UniformTopology(k, n)
		if top.NumGroups() != k || top.NumReplicas() != k*n {
			t.Fatalf("%d×%d: got %d groups, %d replicas", k, n, top.NumGroups(), top.NumReplicas())
		}
		var all []ProcessID
		var groups []GroupID
		for g := GroupID(0); int(g) < k; g++ {
			groups = append(groups, g)
			members := top.Members(g)
			if len(members) != n || cap(members) != n || top.GroupSize(g) != n || top.QuorumSize(g) != n/2+1 {
				t.Errorf("%d×%d: group %d has %v, size %d, quorum %d", k, n, g, members, top.GroupSize(g), top.QuorumSize(g))
			}
			if top.InitialLeader(g) != members[0] || top.InitialBallot(g) != (Ballot{N: 1, Proc: members[0]}) {
				t.Errorf("%d×%d: group %d led by %d, ballot %v", k, n, g, top.InitialLeader(g), top.InitialBallot(g))
			}
			all = append(all, members...)
		}
		for i, p := range all {
			if p != ProcessID(i) {
				t.Fatalf("%d×%d: member %d is %d, not group-major", k, n, i, p)
			}
		}
		for _, p := range append(all, NoProcess, ProcessID(k*n)) {
			// The brute-force answers: scan the member lists for p.
			group, rank := NoGroup, -1
			var peers []ProcessID
			for g := GroupID(0); int(g) < k; g++ {
				if i := slices.Index(top.Members(g), p); i >= 0 {
					group, rank = g, i
					for _, q := range top.Members(g) {
						if q != p {
							peers = append(peers, q)
						}
					}
				}
			}
			if top.GroupOf(p) != group || top.IsReplica(p) != (group != NoGroup) || top.Rank(p) != rank {
				t.Errorf("%d×%d: p%d: GroupOf %d, IsReplica %v, Rank %d; want %d, %v, %d",
					k, n, p, top.GroupOf(p), top.IsReplica(p), top.Rank(p), group, group != NoGroup, rank)
			}
			if got := top.Peers(p); !slices.Equal(got, peers) {
				t.Errorf("%d×%d: Peers(%d) = %v, want %v", k, n, p, got, peers)
			}
		}
		if !top.AllGroups().Equal(groups) {
			t.Errorf("%d×%d: AllGroups = %v", k, n, top.AllGroups())
		}
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
