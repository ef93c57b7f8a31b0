package ring

import (
	"sync"
	"testing"
)

// item tags a value with its producer so FIFO can be checked per producer.
type item struct {
	producer int
	seq      int
}

func TestSingleProducerFIFO(t *testing.T) {
	q := New[int](16)
	for i := 0; i < 1000; i++ {
		q.Enqueue(i)
		if i%3 == 0 { // interleave consumption so batches are swapped mid-stream
			for q.Depth() > 4 {
				q.Dequeue()
			}
		}
	}
	prev := -1
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		if v <= prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth %d after full drain", d)
	}
}

// TestGrowsPastFirstBatch enqueues far past New's capacity with no
// consumer running: nothing may be lost, depth and high water must be
// exact, and order must hold on drain.
func TestGrowsPastFirstBatch(t *testing.T) {
	q := New[int](8)
	const n = 10_000
	for i := 0; i < n; i++ {
		q.Enqueue(i)
	}
	if d := q.Depth(); d != n {
		t.Fatalf("depth %d, want %d", d, n)
	}
	if hw := q.HighWater(); hw != n {
		t.Fatalf("high water %d, want %d", hw, n)
	}
	for i := 0; i < n; i++ {
		v, ok := q.Dequeue()
		if !ok {
			t.Fatalf("queue empty after %d items, want %d", i, n)
		}
		if v != i {
			t.Fatalf("item %d: got %d", i, v)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("queue not empty after draining everything")
	}
}

// TestConcurrentProducersFIFO runs many producers against one consumer
// (under -race in CI) and checks that no item is lost or duplicated and
// that each producer's items arrive in its enqueue order while the
// producers race the consumer's swap of the batch.
func TestConcurrentProducersFIFO(t *testing.T) {
	const producers = 8
	const perProducer = 20_000
	q := New[item](16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(item{producer: p, seq: i})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	next := make([]int, producers)
	got := 0
	for got < producers*perProducer {
		v, ok := q.Dequeue()
		if !ok {
			select {
			case <-done:
				// Every Enqueue has returned: empty now means lost.
				if v, ok = q.Dequeue(); !ok {
					t.Fatalf("lost items: got %d of %d", got, producers*perProducer)
				}
			default:
				continue
			}
		}
		if v.seq != next[v.producer] {
			t.Fatalf("producer %d: got seq %d, want %d", v.producer, v.seq, next[v.producer])
		}
		next[v.producer]++
		got++
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("extra items after all producers' counts satisfied")
	}
}

// TestAccountingConservation checks Depth/HighWater bookkeeping: depth
// returns to zero once everything enqueued has been dequeued, and the
// high-water mark is a plausible maximum (≥ final drain start depth,
// ≤ total enqueued).
func TestAccountingConservation(t *testing.T) {
	const producers = 4
	const perProducer = 5_000
	q := New[int](64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(i)
			}
		}()
	}
	wg.Wait()
	preDrain := q.Depth()
	if preDrain != producers*perProducer {
		t.Fatalf("depth %d before drain, want %d", preDrain, producers*perProducer)
	}
	n := 0
	for {
		if _, ok := q.Dequeue(); !ok {
			break
		}
		n++
	}
	if n != producers*perProducer {
		t.Fatalf("drained %d, want %d", n, producers*perProducer)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth %d after drain, want 0", d)
	}
	if hw := q.HighWater(); hw < preDrain || hw > int64(producers*perProducer) {
		t.Fatalf("high water %d outside [%d, %d]", hw, preDrain, producers*perProducer)
	}
}

// TestDrainedBurstIsNotKept: once a burst far past any steady depth has
// been drained, the queue holds none of its memory, while a batch of a
// steady depth is kept for reuse.
func TestDrainedBurstIsNotKept(t *testing.T) {
	q := New[int](64)
	const burst, steady = 100_000, 200
	for _, n := range []int{burst, steady} {
		for i := 0; i < n; i++ {
			q.Enqueue(i)
		}
		for i := 0; i < n; i++ {
			if _, ok := q.Dequeue(); !ok {
				t.Fatalf("queue empty after %d of %d items", i, n)
			}
		}
		for i := 0; i < 10; i++ { // one post, one take: the batches swap
			q.Enqueue(i)
			if v, ok := q.Dequeue(); !ok || v != i {
				t.Fatalf("took %d, %v after posting %d", v, ok, i)
			}
		}
		if n == burst && (cap(q.in) >= burst/10 || cap(q.out) >= burst/10) {
			t.Fatalf("after a drained burst of %d the batches keep room for %d and %d items", burst, cap(q.in), cap(q.out))
		}
	}
	if cap(q.in) < steady && cap(q.out) < steady {
		t.Fatalf("after a drained batch of %d the batches keep room for %d and %d items only", steady, cap(q.in), cap(q.out))
	}
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	q := New[int](1024)
	for i := 0; i < b.N; i++ {
		q.Enqueue(i)
		q.Dequeue()
	}
}

func BenchmarkContendedProducers(b *testing.B) {
	q := New[int](1024)
	done := make(chan struct{})
	go func() { // the single consumer
		defer close(done)
		seen := int64(0)
		for seen < int64(b.N) {
			if _, ok := q.Dequeue(); ok {
				seen++
			}
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Enqueue(1)
		}
	})
	<-done
}
