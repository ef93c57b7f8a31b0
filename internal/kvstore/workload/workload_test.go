package workload

import (
	"hash/fnv"
	"testing"

	"wbcast/internal/kvstore"
)

// shardOf is a stand-in partitioner (FNV mod shards, like the kv default).
func shardOf(shards int) func([]byte) int {
	return func(key []byte) int {
		h := fnv.New32a()
		h.Write(key) //nolint:errcheck
		return int(h.Sum32() % uint32(shards))
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
