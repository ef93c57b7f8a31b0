package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wbcast/kv"
)

// newWorkload builds the op distribution of spec: 100 000 keys, scrambled
// Zipfian θ=0.99, 64-byte values, hash partitioner; 50 % reads, and either
// no multi-shard operations or nothing but two-shard transactions.
func newWorkload(spec kvSpec) (*kv.Workload, error) {
	part := kv.HashPartitioner{}
	cfg := kv.WorkloadConfig{
		Keys:         numKeys,
		Dist:         kv.Zipfian,
		Theta:        zipfTheta,
		ReadFraction: 0.5,
		ValueSize:    valueSize,
		Shards:       numGroups,
		Shard:        func(key []byte) int { return part.Shard(key, numGroups) },
	}
	if spec.cross {
		cfg.MultiShard = 1
		cfg.TxnSize = 2
	}
	return kv.NewWorkload(cfg)
}

// opSource is one caller's deterministic op stream: the kv generator seeded
// with seed*1000+caller. A generated transaction reads and writes at
// random; kv-cross wants exactly one Get and one Put, so the kinds of its
// two sub-operations are rewritten (keys and shards stay as generated).
type opSource struct {
	gen *kv.WorkloadGen
	rng *rand.Rand
}

func newOpSource(wl *kv.Workload, seed int64, caller int) *opSource {
	s := seed*1000 + int64(caller)
	return &opSource{gen: wl.Generator(s), rng: rand.New(rand.NewSource(^s))}
}

func (s *opSource) next() kv.Op {
	op := s.gen.Next().Op
	if op.Kind == kv.OpTxn {
		val := make([]byte, valueSize)
		s.rng.Read(val) //nolint:errcheck // math/rand never fails
		op.Subs[0] = kv.Op{Kind: kv.OpGet, Key: op.Subs[0].Key}
		op.Subs[1] = kv.Op{Kind: kv.OpPut, Key: op.Subs[1].Key, Val: val}
	}
	return op
}

// doer executes one kv operation and waits for its reply: the public
// kv.Client, or the traced stack's own client.
type doer interface {
	do(ctx context.Context, op kv.Op) error
}

type publicDoer struct{ c *kv.Client }

func (d publicDoer) do(ctx context.Context, op kv.Op) error {
	switch op.Kind {
	case kv.OpGet:
		_, _, err := d.c.Get(ctx, op.Key)
		return err
	case kv.OpPut:
		return d.c.Put(ctx, op.Key, op.Val)
	case kv.OpTxn:
		_, err := d.c.Txn(ctx, op.Subs...)
		return err
	default:
		return fmt.Errorf("benchmark: unexpected op kind %v", op.Kind)
	}
}

// sample is one completed operation: when its reply arrived (since the
// load started) and how long the caller waited for it.
type sample struct {
	end time.Duration
	lat time.Duration
}

// load is a closed loop: callersPerClient goroutines per doer, each sending
// its next generated op only after the previous reply.
type load struct {
	start     time.Time
	stop      atomic.Bool
	wg        sync.WaitGroup
	mu        sync.Mutex
	samples   []sample
	attempted int
	failed    int
	firstErr  error
}

// startLoad launches the callers. maxRun bounds the whole load: an op still
// unanswered opDeadline after it counts as failed instead of hanging the
// run.
func startLoad(doers []doer, wl *kv.Workload, seed int64, maxRun time.Duration) *load {
	l := &load{start: time.Now()}
	ctx, cancel := context.WithDeadline(context.Background(), l.start.Add(maxRun+opDeadline))
	for ci, d := range doers {
		for k := 0; k < callersPerClient; k++ {
			src := newOpSource(wl, seed, ci*callersPerClient+k)
			l.wg.Add(1)
			go l.caller(ctx, d, src)
		}
	}
	go func() {
		l.wg.Wait()
		cancel()
	}()
	return l
}

func (l *load) caller(ctx context.Context, d doer, src *opSource) {
	defer l.wg.Done()
	samples := make([]sample, 0, 1<<16)
	attempted, failed := 0, 0
	var firstErr error
	for !l.stop.Load() {
		op := src.next()
		t0 := time.Now()
		err := d.do(ctx, op)
		t1 := time.Now()
		attempted++
		lat := t1.Sub(t0)
		if err == nil && lat > opDeadline {
			err = fmt.Errorf("benchmark: op answered after %v (deadline %v)", lat, opDeadline)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			if ctx.Err() != nil {
				break
			}
			continue
		}
		samples = append(samples, sample{end: t1.Sub(l.start), lat: lat})
	}
	l.mu.Lock()
	l.samples = append(l.samples, samples...)
	l.attempted += attempted
	l.failed += failed
	if l.firstErr == nil {
		l.firstErr = firstErr
	}
	l.mu.Unlock()
}

// finish stops the callers after their in-flight op and waits for them.
func (l *load) finish() {
	l.stop.Store(true)
	l.wg.Wait()
}

// windowStats summarises the operations answered in one window. The reported
// numbers are taken over the whole window; the per-slice values show how
// steady the window was and are printed beside them.
type windowStats struct {
	ops                         int // samples in the window
	opsPerS, p50ms, p99ms, mean float64
	// The window cut into numSlices equal slices: the median slice, and the
	// best one (highest rate, lowest median, lowest p99, each on its own).
	medOpsPerS, medP50ms, medP99ms    float64
	bestOpsPerS, bestP50ms, bestP99ms float64
}

// window takes throughput and latency percentiles over [from, to), and over
// each of its numSlices equal slices.
func (l *load) window(from, to time.Duration) windowStats {
	slice := (to - from) / numSlices
	lats := make([][]float64, numSlices)
	var all []float64
	for _, s := range l.samples {
		if s.end < from || s.end >= to {
			continue
		}
		i := min(int((s.end-from)/slice), numSlices-1)
		ms := float64(s.lat) / float64(time.Millisecond)
		lats[i] = append(lats[i], ms)
		all = append(all, ms)
	}
	sort.Float64s(all)
	ws := windowStats{
		ops: len(all), opsPerS: float64(len(all)) / (to - from).Seconds(),
		p50ms: quantile(all, 0.50), p99ms: quantile(all, 0.99), mean: mean(all),
	}
	var rates, p50s, p99s []float64
	for _, sl := range lats {
		if len(sl) == 0 {
			continue
		}
		sort.Float64s(sl)
		rates = append(rates, float64(len(sl))/slice.Seconds())
		p50s = append(p50s, quantile(sl, 0.50))
		p99s = append(p99s, quantile(sl, 0.99))
	}
	if len(rates) > 0 {
		ws.medOpsPerS, ws.medP50ms, ws.medP99ms = median(rates), median(p50s), median(p99s)
		ws.bestOpsPerS, ws.bestP50ms, ws.bestP99ms = slices.Max(rates), slices.Min(p50s), slices.Min(p99s)
	}
	return ws
}
