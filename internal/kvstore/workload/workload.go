// Package workload generates key-value workloads for the kv service
// benchmarks: a million-key keyspace addressed with a Zipfian (YCSB-style
// scrambled) or uniform distribution, and a configurable mix of
// single-shard operations and multi-shard transactions. Building one costs
// microseconds whatever the keyspace: the Zipfian normalising constant is
// evaluated in closed form, not summed key by key. The public kv package
// re-exports it for the canonical benchmark and the kv tests.
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"wbcast/internal/kvstore"
)

// Dist selects the key-popularity distribution.
type Dist int

// The supported distributions.
const (
	// Uniform draws keys uniformly from the keyspace.
	Uniform Dist = iota
	// Zipfian draws keys with YCSB's scrambled-Zipfian distribution:
	// ranks follow a Zipf law with parameter Theta, and rank→key scrambling
	// spreads the hot items across the keyspace (and hence across shards).
	Zipfian
)

func (d Dist) String() string {
	if d == Zipfian {
		return "zipfian"
	}
	return "uniform"
}

// Config parameterises a workload.
type Config struct {
	// Keys is the keyspace size (default 1_000_000).
	Keys int
	// Dist is the key-popularity distribution (default Uniform).
	Dist Dist
	// Theta is the Zipfian skew parameter (default 0.99, YCSB's default;
	// must be in (0,1)).
	Theta float64
	// ReadFraction is the fraction of single-key accesses that read
	// (default 0.5). Writes are Puts; transactions mix reads and writes
	// with the same fraction.
	ReadFraction float64
	// MultiShard is the fraction of operations issued as multi-shard
	// transactions (default 0). Requires Shards >= 2 and a Shard func.
	MultiShard float64
	// TxnSize is the number of distinct shards a transaction touches
	// (default 2, capped at Shards).
	TxnSize int
	// ValueSize is the Put payload size in bytes (default 64).
	ValueSize int
	// Shards is the number of shards keys are partitioned over; with
	// Shard it lets the generator build transactions that genuinely span
	// shards (and tag every op with its destination count).
	Shards int
	// Shard maps a key to its shard in [0, Shards). Required when
	// MultiShard > 0; the caller passes the service's partitioner so the
	// generator and the client agree on placement.
	Shard func(key []byte) int
}

// Op is one generated operation: the encoded-ready kvstore.Op plus the
// distinct shards it addresses (in ascending order), so drivers can route
// it and bucket latencies by destination-set size.
type Op struct {
	Op     kvstore.Op
	Shards []int
}

// Workload holds a validated configuration and the Zipfian constants New
// evaluates for it.
type Workload struct {
	cfg   Config
	zetan float64
	zeta2 float64
	alpha float64
	eta   float64
}

// New validates cfg, fills defaults, and precomputes distribution
// constants. It refuses a transaction mix whose keys cannot reach TxnSize
// distinct shards.
func New(cfg Config) (*Workload, error) {
	if cfg.Keys == 0 {
		cfg.Keys = 1_000_000
	}
	if cfg.Keys < 1 {
		return nil, fmt.Errorf("workload: Keys must be positive, got %d", cfg.Keys)
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	if cfg.Dist == Zipfian && (cfg.Theta <= 0 || cfg.Theta >= 1) {
		return nil, fmt.Errorf("workload: Theta must be in (0,1), got %g", cfg.Theta)
	}
	if cfg.ReadFraction == 0 {
		cfg.ReadFraction = 0.5
	}
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		return nil, fmt.Errorf("workload: ReadFraction must be in [0,1], got %g", cfg.ReadFraction)
	}
	if cfg.MultiShard < 0 || cfg.MultiShard > 1 {
		return nil, fmt.Errorf("workload: MultiShard must be in [0,1], got %g", cfg.MultiShard)
	}
	if cfg.MultiShard > 0 {
		if cfg.Shards < 2 {
			return nil, fmt.Errorf("workload: MultiShard needs Shards >= 2, got %d", cfg.Shards)
		}
		if cfg.Shard == nil {
			return nil, fmt.Errorf("workload: MultiShard needs a Shard func")
		}
	}
	if cfg.TxnSize == 0 {
		cfg.TxnSize = 2
	}
	if cfg.TxnSize < 2 {
		return nil, fmt.Errorf("workload: TxnSize must be >= 2, got %d", cfg.TxnSize)
	}
	if cfg.Shards > 0 && cfg.TxnSize > cfg.Shards {
		cfg.TxnSize = cfg.Shards
	}
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 64
	}
	w := &Workload{cfg: cfg}
	if cfg.Dist == Zipfian {
		w.zetan, w.zeta2 = zeta(cfg.Keys, cfg.Theta), zeta(min(cfg.Keys, 2), cfg.Theta)
		w.alpha = 1 / (1 - cfg.Theta)
		w.eta = (1 - math.Pow(2/float64(cfg.Keys), 1-cfg.Theta)) / (1 - w.zeta2/w.zetan)
	}
	if cfg.MultiShard > 0 && !w.spansTxn() {
		return nil, fmt.Errorf("workload: the %d keys lie on fewer than TxnSize=%d shards, so no transaction can be drawn", cfg.Keys, cfg.TxnSize)
	}
	return w, nil
}

// zetaHead is how many terms of the zeta sum are added one by one.
const zetaHead = 256

// zeta returns Σ i^-θ for i = 1..n: the first zetaHead terms added in
// order, the rest by Euler–Maclaurin over [a, n], a = zetaHead+1 — the
// integral, both end points and the B₂ and B₄ terms. The remainder is below
// 10⁻¹⁷ of the sum, so the result is as close to the exact sum as the head
// is (2×10⁻¹⁵ relative), in constant time for any n.
func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= min(n, zetaHead); i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n <= zetaHead {
		return sum
	}
	a, b := float64(zetaHead+1), float64(n)
	fa, fb := math.Pow(a, -theta), math.Pow(b, -theta)
	// The integral of x^-θ over [a, b] is a^(1-θ)·(e^((1-θ)·ln(b/a)) - 1)/(1-θ);
	// Expm1 keeps it exact as θ → 1.
	integral := a * fa * math.Expm1((1-theta)*math.Log(b/a)) / (1 - theta)
	d1 := theta * (fa/a - fb/b)                                         // f'(b) - f'(a)
	d3 := theta * (theta + 1) * (theta + 2) * (fa/(a*a*a) - fb/(b*b*b)) // f'''(b) - f'''(a)
	return sum + integral + (fa+fb)/2 + d1/12 - d3/720
}

// spansTxn reports whether the keys the distribution can draw lie on
// TxnSize distinct shards; if not, txn would redraw keys forever. It walks
// them likeliest first (items for Uniform, scrambled ranks for Zipfian), so
// a real config stops after a handful.
func (w *Workload) spansTxn() bool {
	seen := make(map[int]bool, w.cfg.TxnSize)
	for i := 0; i < w.cfg.Keys && len(seen) < w.cfg.TxnSize; i++ {
		item := i
		if w.cfg.Dist == Zipfian {
			item = scramble(i, w.cfg.Keys)
		}
		seen[w.cfg.Shard(Key(item, w.cfg.Keys))] = true
	}
	return len(seen) == w.cfg.TxnSize
}

// Generator returns an independent deterministic op stream. Generators are
// not safe for concurrent use; give each driver goroutine its own, seeded
// differently.
func (w *Workload) Generator(seed int64) *Gen {
	return &Gen{w: w, rng: rand.New(rand.NewSource(seed)), val: make([]byte, w.cfg.ValueSize)}
}

// Gen is one deterministic operation stream over a Workload.
type Gen struct {
	w   *Workload
	rng *rand.Rand
	val []byte
}

// Next generates the next operation.
func (g *Gen) Next() Op {
	cfg := g.w.cfg
	if cfg.MultiShard > 0 && g.rng.Float64() < cfg.MultiShard {
		return g.txn()
	}
	key := g.key()
	var op kvstore.Op
	if g.rng.Float64() < cfg.ReadFraction {
		op = kvstore.Op{Kind: kvstore.OpGet, Key: key}
	} else {
		op = kvstore.Op{Kind: kvstore.OpPut, Key: key, Val: g.value()}
	}
	shards := []int{0}
	if cfg.Shard != nil {
		shards[0] = cfg.Shard(key)
	}
	return Op{Op: op, Shards: shards}
}

// txn draws keys until TxnSize distinct shards are covered, then wraps the
// accesses in one atomic transaction.
func (g *Gen) txn() Op {
	cfg := g.w.cfg
	subs := make([]kvstore.Op, 0, cfg.TxnSize)
	used := make(map[int]bool, cfg.TxnSize)
	shards := make([]int, 0, cfg.TxnSize)
	for len(subs) < cfg.TxnSize {
		key := g.key()
		s := cfg.Shard(key)
		if used[s] {
			continue
		}
		used[s] = true
		shards = append(shards, s)
		if g.rng.Float64() < cfg.ReadFraction {
			subs = append(subs, kvstore.Op{Kind: kvstore.OpGet, Key: key})
		} else {
			subs = append(subs, kvstore.Op{Kind: kvstore.OpPut, Key: key, Val: g.value()})
		}
	}
	for i := 1; i < len(shards); i++ { // insertion sort; TxnSize is tiny
		for j := i; j > 0 && shards[j] < shards[j-1]; j-- {
			shards[j], shards[j-1] = shards[j-1], shards[j]
		}
	}
	return Op{Op: kvstore.Op{Kind: kvstore.OpTxn, Subs: subs}, Shards: shards}
}

// key draws one key according to the configured distribution.
func (g *Gen) key() []byte {
	var item int
	if g.w.cfg.Dist == Zipfian {
		item = g.zipf()
	} else {
		item = g.rng.Intn(g.w.cfg.Keys)
	}
	return Key(item, g.w.cfg.Keys)
}

// zipf draws a scrambled-Zipfian item in [0, Keys): the rank is Zipf over
// the precomputed zeta constants (Gray et al.'s algorithm as used by
// YCSB), then FNV-scrambled so consecutive hot ranks land on unrelated
// keys.
func (g *Gen) zipf() int {
	w := g.w
	u := g.rng.Float64()
	uz := u * w.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, w.cfg.Theta):
		rank = 1
	default:
		rank = int(float64(w.cfg.Keys) * math.Pow(w.eta*u-w.eta+1, w.alpha))
		if rank >= w.cfg.Keys {
			rank = w.cfg.Keys - 1
		}
	}
	return scramble(rank, w.cfg.Keys)
}

// scramble maps a Zipf rank to its item in [0, keys): FNV-1a over the
// rank's eight little-endian bytes.
func scramble(rank, keys int) int {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(rank >> (8 * i))
	}
	h.Write(b[:]) //nolint:errcheck
	return int(h.Sum64() % uint64(keys))
}

// value returns the next Put payload (pseudorandom).
func (g *Gen) value() []byte {
	for i := range g.val {
		g.val[i] = byte(g.rng.Intn(256))
	}
	return append([]byte(nil), g.val...)
}

// Key renders item (in [0, space)) as its canonical key: "k" followed by
// the zero-padded decimal item, wide enough for the keyspace. All drivers
// use it so keyspaces are comparable across runs.
func Key(item, space int) []byte {
	width := 1
	for n := space - 1; n >= 10; n /= 10 {
		width++
	}
	buf := make([]byte, width+1)
	buf[0] = 'k'
	for i := width; i >= 1; i-- {
		buf[i] = byte('0' + item%10)
		item /= 10
	}
	return buf
}
