package pq

import "slices"

// Heap is a binary min-heap of T under less. The zero value is not ready to
// use; call New.
type Heap[T any] struct {
	items []T
	less  func(a, b *T) bool
}

// New returns an empty heap ordered by less, which must be a strict weak
// order.
func New[T any](less func(a, b *T) bool) Heap[T] {
	return Heap[T]{less: less}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Min returns the least element, which stays in the heap. The pointer is
// valid until the next Push, Pop or Filter. The heap must not be empty.
func (h *Heap[T]) Min() *T { return &h.items[0] }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the least element. The heap must not be empty.
func (h *Heap[T]) Pop() T {
	top, last := h.items[0], len(h.items)-1
	// The vacated slot is zeroed: it must not keep what it referred to alive.
	h.items[0], h.items[last] = h.items[last], *new(T)
	h.items = h.items[:last]
	h.down(0)
	return top
}

// Filter removes every element for which keep returns false, visiting each
// once in no particular order, and restores the heap order in O(n).
func (h *Heap[T]) Filter(keep func(T) bool) {
	h.items = slices.DeleteFunc(h.items, func(x T) bool { return !keep(x) })
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// up and down sift by swapping within the slice: less only ever sees
// pointers into it, because a pointer to a local passed to a function value
// would move that local to the heap on every call.

// up moves the element at i towards the root to its place.
func (h *Heap[T]) up(i int) {
	s := h.items
	for p := (i - 1) / 2; i > 0 && h.less(&s[i], &s[p]); i, p = p, (p-1)/2 {
		s[i], s[p] = s[p], s[i]
	}
}

// down moves the element at i towards the leaves to its place.
func (h *Heap[T]) down(i int) {
	s := h.items
	for c := 2*i + 1; c < len(s); i, c = c, 2*c+1 {
		if c+1 < len(s) && h.less(&s[c+1], &s[c]) {
			c++ // the lesser child
		}
		if !h.less(&s[c], &s[i]) {
			return
		}
		s[i], s[c] = s[c], s[i]
	}
}
