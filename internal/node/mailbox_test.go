package node

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestPostAfterDeadlineOrder: envelopes armed with shuffled delays reach the
// consumer in deadline order (arming order among equal deadlines), through
// the mailbox's one runtime timer, none before its deadline, and a plain
// post is not held up behind them.
func TestPostAfterDeadlineOrder(t *testing.T) {
	const timers = 200
	quit := make(chan struct{})
	defer close(quit)
	m := NewMailbox[int](8, quit)
	type arrival struct {
		e  int
		at time.Time
	}
	got := make(chan arrival, timers+1)
	go m.Run(func(e int) { got <- arrival{e, time.Now()} }, func() {})

	rng := rand.New(rand.NewSource(1))
	for _, slot := range rng.Perm(timers / 2) {
		d := 100*time.Millisecond + time.Duration(slot)*200*time.Microsecond
		m.PostAfter(d, 2*slot)
		m.PostAfter(d, 2*slot+1) // the same deadline, or one a moment later
	}
	// The deadlines as armed (the arming loop's own pace shifts them).
	var want []timed[int]
	m.tmu.Lock()
	m.timers.Filter(func(t timed[int]) bool { want = append(want, t); return true })
	m.tmu.Unlock()
	if len(want) != timers {
		t.Fatalf("%d of %d envelopes still armed after the arming loop: the host stalled", len(want), timers)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })

	m.Post(-1)
	if first := <-got; first.e != -1 {
		t.Fatalf("a plain post arrived behind envelope %d, armed for later", first.e)
	}
	for i, w := range want {
		select {
		case a := <-got:
			if a.e != w.e {
				t.Fatalf("arrival %d is envelope %d, want %d (deadline order)", i, a.e, w.e)
			}
			if early := w.at - a.at.Sub(m.epoch); early > 0 {
				t.Fatalf("envelope %d arrived %v before its deadline", a.e, early)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d of %d armed envelopes", i, timers)
		}
	}
}

// TestPostAfterLapsesAtQuit: nothing armed is consumed once quit is closed,
// and Run returns without waiting for a deadline.
func TestPostAfterLapsesAtQuit(t *testing.T) {
	quit := make(chan struct{})
	m := NewMailbox[int](8, quit)
	got := make(chan int, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(e int) { got <- e }, func() {})
	}()
	m.PostAfter(time.Millisecond, 1)
	if e := <-got; e != 1 {
		t.Fatalf("got %d", e)
	}
	for i := 2; i < 10; i++ {
		m.PostAfter(30*time.Millisecond, i)
	}
	close(quit)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return at quit")
	}
	time.Sleep(60 * time.Millisecond)
	m.PostAfter(0, 10)
	select {
	case e := <-got:
		t.Fatalf("envelope %d arrived after quit", e)
	default:
	}
}
