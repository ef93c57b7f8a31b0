// Package pq is the binary min-heap behind every priority queue in the
// repository: the simulator's event queue (internal/sim), the delivery
// queue's pending and committed sets (internal/ordering) and a mailbox's
// armed timers (internal/node).
//
// A Heap stores its elements by value in one slice and orders them with a
// less function over pointers, so neither a push nor a comparison boxes or
// copies an element the way container/heap's interface does. Every caller
// orders by a key that is unique among the live elements — (time, sequence)
// or a timestamp — so the order of pops is fixed by the keys alone and does
// not depend on how the heap breaks ties.
package pq
