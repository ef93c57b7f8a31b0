package kv

import (
	"wbcast/internal/kvstore/workload"
)

// Workload types, re-exported from the generator so load drivers outside
// this module's internal tree (the canonical benchmark, the kv chaos
// tests) can drive kv workloads.
type (
	// Workload holds a validated workload configuration with precomputed
	// distribution constants; build one with NewWorkload.
	Workload = workload.Workload
	// WorkloadConfig parameterises a workload: keyspace size,
	// distribution, read fraction, multi-shard transaction mix.
	WorkloadConfig = workload.Config
	// WorkloadGen is one deterministic operation stream (one per driver
	// goroutine; not concurrency-safe).
	WorkloadGen = workload.Gen
	// WorkloadOp is one generated operation with the shards it addresses.
	WorkloadOp = workload.Op
	// Dist selects the key-popularity distribution.
	Dist = workload.Dist
)

// The key-popularity distributions.
const (
	// Uniform draws keys uniformly.
	Uniform = workload.Uniform
	// Zipfian draws keys with the YCSB-style scrambled-Zipfian
	// distribution (skew parameter WorkloadConfig.Theta).
	Zipfian = workload.Zipfian
)

// NewWorkload validates cfg, fills defaults, and computes the distribution
// constants (the Zipfian zeta sum in closed form, in microseconds).
func NewWorkload(cfg WorkloadConfig) (*Workload, error) { return workload.New(cfg) }

// WorkloadKey renders item (in [0, space)) as its canonical workload key,
// so external load drivers can address the same keyspace the generator
// uses.
func WorkloadKey(item, space int) []byte { return workload.Key(item, space) }
