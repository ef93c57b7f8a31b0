package workload

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"slices"
	"testing"
	"time"

	"wbcast/internal/kvstore"
)

// shardOf is a stand-in partitioner: FNV-1a 64 mod shards, as
// kv.HashPartitioner places keys.
func shardOf(shards int) func([]byte) int {
	return func(key []byte) int {
		h := fnv.New64a()
		h.Write(key) //nolint:errcheck
		return int(h.Sum64() % uint64(shards))
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	w, err := New(Config{Keys: 1000, Dist: Zipfian, MultiShard: 0.3, Shards: 3, Shard: shardOf(3)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Generator(42), w.Generator(42)
	for i := 0; i < 200; i++ {
		x, y := a.Next(), b.Next()
		if x.Op.Kind != y.Op.Kind || string(x.Op.Key) != string(y.Op.Key) || len(x.Shards) != len(y.Shards) {
			t.Fatalf("op %d diverged: %+v vs %+v", i, x, y)
		}
	}
}

func TestWorkloadMixAndShape(t *testing.T) {
	const n = 5000
	w, err := New(Config{Keys: 10_000, MultiShard: 0.5, TxnSize: 2, Shards: 4, Shard: shardOf(4)})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Generator(1)
	txns := 0
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Op.Kind == kvstore.OpTxn {
			txns++
			if len(op.Shards) != 2 {
				t.Fatalf("txn spans %d shards, want 2", len(op.Shards))
			}
			if op.Shards[0] >= op.Shards[1] {
				t.Fatalf("txn shards unsorted: %v", op.Shards)
			}
			seen := map[int]bool{}
			for _, sub := range op.Op.Subs {
				s := shardOf(4)(sub.Key)
				if seen[s] {
					t.Fatalf("txn keys collide on shard %d", s)
				}
				seen[s] = true
			}
		} else if len(op.Shards) != 1 {
			t.Fatalf("single op tagged with %d shards", len(op.Shards))
		}
	}
	if ratio := float64(txns) / n; ratio < 0.45 || ratio > 0.55 {
		t.Errorf("multi-shard ratio %.3f, want ~0.5", ratio)
	}
}

func TestZipfianSkew(t *testing.T) {
	const n = 20_000
	w, err := New(Config{Keys: 1000, Dist: Zipfian, Theta: 0.99, ReadFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Generator(7)
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[string(g.Next().Op.Key)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// With θ=0.99 over 1000 keys the hottest key gets ~13% of draws;
	// uniform would give 0.1%. Assert the skew is clearly present.
	if float64(max)/n < 0.05 {
		t.Errorf("hottest key only %.4f of draws; Zipfian skew missing", float64(max)/n)
	}
	if len(counts) < 100 {
		t.Errorf("only %d distinct keys drawn; scrambling too narrow", len(counts))
	}
}

func TestUniformSpread(t *testing.T) {
	w, err := New(Config{Keys: 100, Dist: Uniform, ReadFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Generator(3)
	counts := map[string]int{}
	for i := 0; i < 10_000; i++ {
		counts[string(g.Next().Op.Key)]++
	}
	for k, c := range counts {
		if c > 400 { // uniform expectation 100, allow wide slack
			t.Errorf("key %s drawn %d times under uniform", k, c)
		}
	}
	if len(counts) != 100 {
		t.Errorf("uniform over 100 keys drew %d distinct", len(counts))
	}
}

func TestKeyWidth(t *testing.T) {
	if got := string(Key(0, 1_000_000)); got != "k000000" {
		t.Errorf("Key(0, 1e6) = %q", got)
	}
	if got := string(Key(999_999, 1_000_000)); got != "k999999" {
		t.Errorf("Key(999999, 1e6) = %q", got)
	}
	if got := string(Key(5, 10)); got != "k5" {
		t.Errorf("Key(5, 10) = %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Keys: -1},
		{Dist: Zipfian, Theta: 1.5},
		{ReadFraction: 2},
		{MultiShard: 0.5, Shards: 1, Shard: shardOf(1)},
		{MultiShard: 0.5, Shards: 3},
		{TxnSize: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if Uniform.String() != "uniform" || Zipfian.String() != "zipfian" {
		t.Errorf("Dist names = %q, %q", Uniform, Zipfian)
	}
}

// runningSum is how New computed the zeta sum before zeta: every term, in
// order, one math.Pow each.
func runningSum(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func TestZetaClosedForm(t *testing.T) {
	ns := []int{1, 2, 3, 256, 257, 2_000, 100_000, 1_000_000}
	for _, theta := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		// The reference adds every term exactly at 256 bits; each term is
		// math.Pow's, within an ulp of i^-θ.
		ref := new(big.Float).SetPrec(256)
		i := 0
		for _, n := range ns {
			for ; i < n; i++ {
				ref.Add(ref, new(big.Float).SetFloat64(1/math.Pow(float64(i+1), theta)))
			}
			got := zeta(n, theta)
			if n <= zetaHead {
				if want := runningSum(n, theta); got != want {
					t.Errorf("zeta(%d, %g) = %v, running sum %v: not bit-identical", n, theta, got, want)
				}
				continue
			}
			want, _ := ref.Float64()
			if rel := math.Abs(got-want) / want; rel > 2e-15 {
				t.Errorf("zeta(%d, %g) = %.17g, exact sum %.17g: relative error %.2g > 2e-15", n, theta, got, want, rel)
			}
		}
	}
}

// TestStreamsUnchanged holds the generator to the ops it drew with the
// brute-force constants, for the canonical benchmark's kv-local and
// kv-cross shapes (callers seeded seed*1000+caller) and the kv chaos test's.
func TestStreamsUnchanged(t *testing.T) {
	local := Config{Keys: 100_000, Dist: Zipfian, Theta: 0.99, ReadFraction: 0.5, ValueSize: 64, Shards: 3, Shard: shardOf(3)}
	cross := local
	cross.MultiShard, cross.TxnSize = 1, 2
	chaos := Config{Keys: 2000, Dist: Zipfian, MultiShard: 0.3, TxnSize: 2, Shards: 3, Shard: shardOf(3)}
	for name, cfg := range map[string]Config{"kv-local": local, "kv-cross": cross, "chaos": chaos} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := *w
			ref.zetan, ref.zeta2 = runningSum(cfg.Keys, ref.cfg.Theta), runningSum(2, ref.cfg.Theta)
			ref.eta = (1 - math.Pow(2/float64(cfg.Keys), 1-ref.cfg.Theta)) / (1 - ref.zeta2/ref.zetan)
			for seed := int64(1); seed <= 3; seed++ {
				for caller := int64(0); caller < 16; caller++ {
					g, r := w.Generator(seed*1000+caller), ref.Generator(seed*1000+caller)
					for i := 0; i < 20_000; i++ {
						if got, want := g.Next(), r.Next(); !sameOp(got, want) {
							t.Fatalf("seed %d caller %d op %d: %+v, brute-force constants give %+v", seed, caller, i, got, want)
						}
					}
				}
			}
		})
	}
}

func sameOp(a, b Op) bool {
	eq := func(x, y kvstore.Op) bool {
		return x.Kind == y.Kind && bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Val, y.Val)
	}
	return eq(a.Op, b.Op) && slices.EqualFunc(a.Op.Subs, b.Op.Subs, eq) && slices.Equal(a.Shards, b.Shards)
}

// TestTxnNeedsTxnSizeShards: a transaction mix whose keys cannot reach
// TxnSize shards is refused by New, where Next would redraw keys forever.
func TestTxnNeedsTxnSizeShards(t *testing.T) {
	split := func(key []byte) int { return int(key[len(key)-1]-'0') % 2 } // k0 → 0, k1 → 1
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{Keys: 1, Dist: Zipfian, MultiShard: 1, Shards: 2, Shard: shardOf(2)}, false},
		{Config{Keys: 1, MultiShard: 1, Shards: 2, Shard: shardOf(2)}, false},
		{Config{Keys: 1000, Dist: Zipfian, MultiShard: 0.5, Shards: 3, Shard: func([]byte) int { return 1 }}, false},
		{Config{Keys: 2, Dist: Zipfian, MultiShard: 1, Shards: 3, TxnSize: 3, Shard: split}, false},
		{Config{Keys: 2, Dist: Zipfian, MultiShard: 1, Shards: 2, Shard: split}, true},
		{Config{Keys: 2, MultiShard: 1, Shards: 2, Shard: split}, true},
	} {
		done := make(chan error, 1)
		go func() {
			w, err := New(tc.cfg)
			if err == nil {
				g := w.Generator(1)
				for i := 0; i < 100; i++ {
					g.Next()
				}
			}
			done <- err
		}()
		select {
		case err := <-done:
			if (err == nil) != tc.ok {
				t.Errorf("New(%+v): err = %v, want accepted = %v", tc.cfg, err, tc.ok)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("New(%+v) and 100 Next calls still running after 2 s", tc.cfg)
		}
	}
}

// FuzzWorkload: New refuses the config, or Next returns and tags every op
// with the shards of its keys.
func FuzzWorkload(f *testing.F) {
	f.Add(uint16(4095), uint8(2), uint8(2), uint8(255), uint16(9899), true, uint8(2), int64(1))
	f.Add(uint16(0), uint8(1), uint8(0), uint8(255), uint16(9899), true, uint8(1), int64(1))
	f.Add(uint16(1999), uint8(2), uint8(2), uint8(77), uint16(5000), false, uint8(0), int64(7))
	f.Fuzz(func(t *testing.T, keys uint16, shards, txnSize, multi uint8, theta uint16, zipf bool, spread uint8, seed int64) {
		nShards := 1 + int(shards%8)
		part := shardOf(1 + int(spread)%nShards) // 1 puts every key on shard 0
		cfg := Config{
			Keys:       1 + int(keys%4096),
			Theta:      float64(1+theta%9999) / 10_000,
			MultiShard: float64(multi) / 255,
			TxnSize:    int(txnSize % 10),
			Shards:     nShards,
			Shard:      part,
		}
		if zipf {
			cfg.Dist = Zipfian
		}
		w, err := New(cfg)
		if err != nil {
			return
		}
		done := make(chan string, 1)
		go func() {
			g := w.Generator(seed)
			for i := 0; i < 100; i++ {
				op := g.Next()
				opKeys := [][]byte{op.Op.Key}
				if op.Op.Kind == kvstore.OpTxn {
					opKeys = opKeys[:0]
					for _, sub := range op.Op.Subs {
						opKeys = append(opKeys, sub.Key)
					}
				}
				var want []int
				for _, k := range opKeys {
					want = append(want, part(k))
				}
				slices.Sort(want)
				if want = slices.Compact(want); !slices.Equal(op.Shards, want) {
					done <- fmt.Sprintf("op %d %+v tagged with shards %v, its keys lie on %v", i, op.Op, op.Shards, want)
					return
				}
			}
			done <- ""
		}()
		select {
		case msg := <-done:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("100 Next calls still running after 10 s for %+v", cfg)
		}
	})
}

// BenchmarkNewWorkload times New on the canonical benchmark's kv-local
// shape: the Zipfian constants are its whole cost.
func BenchmarkNewWorkload(b *testing.B) {
	for _, keys := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			b.ReportAllocs()
			cfg := Config{Keys: keys, Dist: Zipfian, Theta: 0.99, Shards: 3, Shard: shardOf(3)}
			for b.Loop() {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
