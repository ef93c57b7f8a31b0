package node

import (
	"math/rand"
	"runtime"
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
	m := NewMailbox[int](quit)
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
	m := NewMailbox[int](quit)
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

// drains runs one mailbox, whose Gather always returns gather, at GOMAXPROCS 1
// until total envelopes were consumed and returns how many each drain held.
// The first envelope's consume starts posters goroutines that each post one
// more; the rest are posted already.
func drains(t *testing.T, gather bool, posters, total int) []int {
	quit := make(chan struct{})
	defer close(quit)
	m := NewMailbox[int](quit)
	m.Gather = func() bool { return gather }
	m.Post(0)
	for i := posters + 1; i < total; i++ {
		m.Post(i)
	}
	var sizes []int
	n, sum := 0, 0
	done := make(chan struct{})
	consume := func(e int) {
		if e == 0 {
			for i := 1; i <= posters; i++ {
				go m.Post(i)
			}
		}
		n++
	}
	commit := func() {
		sizes = append(sizes, n)
		if sum += n; sum == total {
			close(done)
		}
		n = 0
	}
	go m.Run(consume, commit)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out: drains %v", sizes)
	}
	return sizes
}

// TestDrainGathersReadyPosters: at GOMAXPROCS 1 the goroutines a consume
// call wakes run only once the loop gives up the processor. While Gather says
// no, the loop commits the first envelope alone; while it says yes, the yield
// before the commit takes in what they post — though not always: on every 61st
// scheduler tick Go runs the global queue first, where the yield put the
// loop. A repetition costs the same number of ticks each time, so a run
// could lock onto that tick; each one starts after a random number of
// yields instead. Either way no drain exceeds maxCommitInputs.
func TestDrainGathersReadyPosters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const posters, reps = 8, 200
	if first := drains(t, false, posters, posters+1)[0]; first != 1 {
		t.Fatalf("Gather false: the first drain held %d envelopes, want 1", first)
	}
	rng := rand.New(rand.NewSource(1))
	whole := 0
	for r := 0; r < reps; r++ {
		for range rng.Intn(61) {
			runtime.Gosched()
		}
		if drains(t, true, posters, posters+1)[0] == posters+1 {
			whole++
		}
	}
	if whole < reps*9/10 {
		t.Errorf("Gather true: %d of %d first drains held all %d envelopes, want ≥ 90 %%", whole, reps, posters+1)
	}
	for _, gather := range []bool{false, true} {
		for _, k := range drains(t, gather, 3*maxCommitInputs, 4*maxCommitInputs) {
			if k > maxCommitInputs {
				t.Fatalf("Gather %v: a drain held %d envelopes, above %d", gather, k, maxCommitInputs)
			}
		}
	}
}
