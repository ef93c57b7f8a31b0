package pq

import (
	"math/rand"
	"slices"
	"testing"
)

// item is ordered by (key, seq), unique like every caller's key; pad makes
// it too large to fit an interface word, so a boxed copy would show as an
// allocation.
type item struct {
	key, seq int
	pad      [5]uint64
}

func itemLess(a, b *item) bool { return a.key < b.key || a.key == b.key && a.seq < b.seq }

func sortedCopy(xs []item) []item {
	out := slices.Clone(xs)
	slices.SortFunc(out, func(a, b item) int {
		if itemLess(&a, &b) {
			return -1
		}
		if itemLess(&b, &a) {
			return 1
		}
		return 0
	})
	return out
}

// TestPopOrder: interleaved pushes and pops, with many equal keys, return
// every element in (key, seq) order, and Min is always what Pop returns.
func TestPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		h := New(itemLess)
		var live []item
		seq := 0
		for op := 0; op < 300; op++ {
			if h.Len() > 0 && rng.Intn(3) == 0 {
				want := sortedCopy(live)[0]
				if m := *h.Min(); m != want {
					t.Fatalf("round %d: Min = %+v, want %+v", round, m, want)
				}
				if got := h.Pop(); got != want {
					t.Fatalf("round %d: Pop = %+v, want %+v", round, got, want)
				}
				live = slices.DeleteFunc(live, func(x item) bool { return x == want })
				continue
			}
			seq++
			x := item{key: rng.Intn(20), seq: seq}
			h.Push(x)
			live = append(live, x)
		}
		for _, want := range sortedCopy(live) {
			if got := h.Pop(); got != want {
				t.Fatalf("round %d: draining Pop = %+v, want %+v", round, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("round %d: %d left after draining", round, h.Len())
		}
	}
}

// TestFilter: what Filter keeps pops in order; what it drops is gone and its
// slots are zeroed.
func TestFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 100; round++ {
		h := New(itemLess)
		var kept []item
		n := 1 + rng.Intn(200)
		for seq := 0; seq < n; seq++ {
			x := item{key: rng.Intn(50), seq: seq}
			h.Push(x)
			if x.key%3 != 0 {
				kept = append(kept, x)
			}
		}
		visited := 0
		h.Filter(func(x item) bool { visited++; return x.key%3 != 0 })
		if visited != n || h.Len() != len(kept) {
			t.Fatalf("round %d: %d of %d visited, %d kept, want %d", round, visited, n, h.Len(), len(kept))
		}
		for _, dead := range h.items[h.Len():cap(h.items)] {
			if dead != (item{}) {
				t.Fatalf("round %d: a filtered slot still holds %+v", round, dead)
			}
		}
		for _, want := range sortedCopy(kept) {
			if got := h.Pop(); got != want {
				t.Fatalf("round %d: Pop after Filter = %+v, want %+v", round, got, want)
			}
		}
	}
}

// TestNoBoxing: once the slice has grown, a push and a pop allocate nothing.
func TestNoBoxing(t *testing.T) {
	h := New(itemLess)
	for i := 0; i < 64; i++ {
		h.Push(item{key: i})
	}
	seq := 64
	if allocs := testing.AllocsPerRun(1000, func() {
		seq++
		h.Push(item{key: seq % 97, seq: seq})
		_ = h.Pop()
	}); allocs != 0 {
		t.Fatalf("%v allocations per push and pop, want 0", allocs)
	}
}
