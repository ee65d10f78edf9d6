package core

import (
	"context"
	"fmt"
)

// ShardedCensus fans one census out over N cooperating shard pipelines,
// the way "Ten Years of ZMap" describes multi-machine scanning: the
// discovery permutation is strided so each shard probes a disjoint 1/N of
// the address walk, and every shard runs its own scanner and enumerator
// fleet against the one shared world. The shards split discovery and
// enumeration only, not the analysis state: every shard drains into the
// run's one sink chain (the StreamTo ledger, one aggregator, one
// robustness ledger, serialized behind a mutex), so there is nothing to
// merge when they finish. The fold is additive with deterministic
// tie-breaking, so the order in which shards interleave cannot change a
// table: a sharded Result finalizes byte-identical tables to a
// single-process run over the same world.
//
// The PORT-validation collector is shared too, and the JSONL ledger
// carries every shard's records interleaved in completion order and is
// closed exactly once. All shards run under one context, so a deadline
// truncates them together; the records drained before the cut stay folded
// in as a truncated partial, not dropped.
type ShardedCensus struct {
	Census *Census
	Shards int
}

// shardSourceStride spaces the shards' enumerator source-address blocks:
// shard i's fleet binds sources starting at ScannerBase + i*stride. The
// block must hold EnumWorkers addresses, and maxShards blocks must stay
// below CollectorIP.
const shardSourceStride = 1024

// maxShards caps the fan-out at what the measurement-address block holds:
// (CollectorIP - ScannerBase) / shardSourceStride.
const maxShards = 63

// NewShardedCensus synthesizes the world and network once, shared by every
// shard. Shards below 1 mean 1 (a plain single-pipeline census).
func NewShardedCensus(cfg CensusConfig, shards int) (*ShardedCensus, error) {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		return nil, fmt.Errorf("core: %d shards exceeds the source-address budget (max %d)", shards, maxShards)
	}
	if shards > 1 && cfg.EnumWorkers > shardSourceStride {
		return nil, fmt.Errorf("core: %d enum workers per shard exceeds the source block (max %d)", cfg.EnumWorkers, shardSourceStride)
	}
	if shards > 1 && cfg.IdentifyWorkers > shardSourceStride {
		return nil, fmt.Errorf("core: %d identify workers per shard exceeds the source block (max %d)", cfg.IdentifyWorkers, shardSourceStride)
	}
	c, err := NewCensus(cfg)
	if err != nil {
		return nil, err
	}
	return &ShardedCensus{Census: c, Shards: shards}, nil
}

// Run executes the shard pipelines concurrently over one sink chain. With
// one shard it is exactly Census.Run. Both paths are runN
// (see checkpoint.go), so checkpoint/resume works identically sharded and
// unsharded.
func (s *ShardedCensus) Run(ctx context.Context) (*Result, error) {
	return s.Census.runN(ctx, s.Shards)
}
