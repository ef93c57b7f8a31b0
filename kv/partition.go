package kv

import "hash/fnv"

// HashPartitioner places keys on shards: by FNV-1a hash modulo the shard
// count, uniform and stateless, at the cost of key locality. Every client
// and every shard engine of a deployment places keys with it, so they
// agree.
type HashPartitioner struct{}

// Shard returns the shard owning key, in [0, shards); the empty key is a
// valid key.
func (HashPartitioner) Shard(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write(key) //nolint:errcheck // hash.Hash never errors
	return int(h.Sum64() % uint64(shards))
}
