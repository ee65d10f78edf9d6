package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/worldgen"
)

// countingSink counts records and Close calls, for stream-consistency
// assertions across shard drains.
type countingSink struct {
	mu      sync.Mutex
	records int
	closes  int
}

func (s *countingSink) Observe(rec *dataset.HostRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records++
	return nil
}

func (s *countingSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closes++
	return nil
}

// shardedOver reruns the same census (same world — certificates vary
// across world builds, so equivalence must compare runs over one world)
// with N shard pipelines.
func shardedOver(t *testing.T, c *Census, shards int) *Result {
	t.Helper()
	sc := &ShardedCensus{Census: c, Shards: shards}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatalf("%d-shard run: %v", shards, err)
	}
	return res
}

// ledgerOver reruns the census over c's world with N shards, streaming to a
// fresh JSONL buffer, and returns the result and the sorted ledger.
func ledgerOver(t *testing.T, c *Census, shards int) (*Result, []string) {
	t.Helper()
	var ledger bytes.Buffer
	c.Config.StreamTo = dataset.NewWriterSink(&ledger)
	res := shardedOver(t, c, shards)
	return res, sortedLines(t, ledger.Bytes())
}

// TestShardedMatchesSingleProcess: the merge-equivalence property on a
// benign world — an N-shard run renders byte-identical tables, identical
// robustness counters, and the same ledger (sorted) as the single-process
// run, for N in {2, 4, 8}.
func TestShardedMatchesSingleProcess(t *testing.T) {
	c, err := NewCensus(CensusConfig{Seed: 7, Scale: 32768, Now: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	single, wantLedger := ledgerOver(t, c, 1)
	want := single.ComputeTables().Render()
	wantRobust := single.Robustness

	for _, shards := range []int{2, 4, 8} {
		res, ledger := ledgerOver(t, c, shards)
		if got := res.ComputeTables().Render(); got != want {
			t.Errorf("%d shards: rendered tables diverge from single-process run (%d vs %d bytes)",
				shards, len(got), len(want))
		}
		if !reflect.DeepEqual(res.Robustness, wantRobust) {
			t.Errorf("%d shards: robustness diverges:\n got %+v\nwant %+v",
				shards, res.Robustness, wantRobust)
		}
		if res.Observed != single.Observed {
			t.Errorf("%d shards: observed %d, want %d", shards, res.Observed, single.Observed)
		}
		if res.Probed != single.Probed {
			t.Errorf("%d shards: probed %d, want %d — strided shards must cover the sweep exactly",
				shards, res.Probed, single.Probed)
		}
		if res.Responded != single.Responded {
			t.Errorf("%d shards: responded %d, want %d", shards, res.Responded, single.Responded)
		}
		if !reflect.DeepEqual(ledger, wantLedger) {
			t.Errorf("%d shards: ledger diverges from the single-process ledger (%d vs %d records)",
				shards, len(ledger), len(wantLedger))
		}
	}
}

// TestShardedHostileMatchesSingleProcess: merge equivalence holds on a
// hostile world too — partial records, failure classes, and retry counts
// merge to exactly the single-process ledger. Timeouts are generous so
// fault outcomes stay deterministic under scheduler load.
func TestShardedHostileMatchesSingleProcess(t *testing.T) {
	c, err := NewCensus(CensusConfig{
		Seed:        7,
		Scale:       131072,
		HostileRate: 0.4,
		FaultMix:    worldgen.DefaultFaultMix(),
		EnumTimeout: 1500 * time.Millisecond,
		HostBudget:  6 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	single, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if single.Robustness.Partial == 0 && len(single.Robustness.Failures) == 0 {
		t.Fatal("hostile world produced no degradation — test is vacuous")
	}
	want := single.ComputeTables().Render()

	res := shardedOver(t, c, 4)
	if got := res.ComputeTables().Render(); got != want {
		t.Errorf("4-shard hostile run renders differently from single-process run")
	}
	if !reflect.DeepEqual(res.Robustness, single.Robustness) {
		t.Errorf("4-shard hostile robustness diverges:\n got %+v\nwant %+v",
			res.Robustness, single.Robustness)
	}
}

// TestShardedSeedVariation: the property holds across seeds, not just the
// shared test world.
func TestShardedSeedVariation(t *testing.T) {
	for _, seed := range []uint64{1, 99} {
		c, err := NewCensus(CensusConfig{Seed: seed, Scale: 65536})
		if err != nil {
			t.Fatal(err)
		}
		single, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res := shardedOver(t, c, 3)
		if single.ComputeTables().Render() != res.ComputeTables().Render() {
			t.Errorf("seed %d: 3-shard tables diverge from single-process run", seed)
		}
	}
}

// TestShardedStreamCounts: the shared stream sink sees every record exactly
// once across all shard drains, and is closed exactly once.
func TestShardedStreamCounts(t *testing.T) {
	sink := &countingSink{}
	reg := obs.NewRegistry()
	sc, err := NewShardedCensus(CensusConfig{
		Seed:     7,
		Scale:    131072,
		StreamTo: sink,
		Metrics:  reg,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed == 0 {
		t.Fatal("sharded census observed no hosts")
	}
	if sink.records != res.Observed {
		t.Errorf("stream saw %d records, result observed %d", sink.records, res.Observed)
	}
	if sink.closes != 1 {
		t.Errorf("stream closed %d times, want exactly once", sink.closes)
	}
	if res.Observed != res.Robustness.Records {
		t.Errorf("observed %d != robustness records %d", res.Observed, res.Robustness.Records)
	}

	// Per-shard counters must sum to the merged view.
	snap := reg.Snapshot()
	var perShard uint64
	for i := 0; i < 4; i++ {
		perShard += snap.Counters[fmt.Sprintf("shard%d.census.observed", i)]
	}
	if merged := snap.Counters["census.observed"]; perShard != merged {
		t.Errorf("per-shard observed sums to %d, merged counter %d", perShard, merged)
	}
	if probed := snap.Counters["zmap.probed"]; probed != res.Probed {
		t.Errorf("merged zmap.probed %d, result probed %d", probed, res.Probed)
	}
}

// TestShardedTruncation: PR 5's truncation semantics survive the merge — a
// deadline mid-run yields a flagged, internally consistent partial result
// whose drained records (from every shard) are all merged, not dropped.
func TestShardedTruncation(t *testing.T) {
	sink := &countingSink{}
	sc, err := NewShardedCensus(CensusConfig{
		Seed:             7,
		Scale:            16384,
		RealisticLatency: true, // slow the run so the deadline lands mid-enumeration
		StreamTo:         sink,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(500*time.Millisecond))
	defer cancel()
	res, err := sc.Run(ctx)
	if err != nil {
		t.Fatalf("deadline-truncated sharded census returned error: %v", err)
	}
	if !res.Truncated || res.TruncatedBy != TruncateDeadline {
		t.Errorf("Truncated=%v TruncatedBy=%q, want true/%q", res.Truncated, res.TruncatedBy, TruncateDeadline)
	}
	if res.Robustness.Failures[TruncateDeadline] != 1 {
		t.Errorf("robustness missing %q class: %v", TruncateDeadline, res.Robustness.Failures)
	}
	if res.Observed != res.Robustness.Records {
		t.Errorf("observed %d != robustness records %d", res.Observed, res.Robustness.Records)
	}
	if sink.records != res.Observed {
		t.Errorf("stream saw %d records, result observed %d — truncated shards must merge their partials",
			sink.records, res.Observed)
	}
	if sink.closes != 1 {
		t.Errorf("stream closed %d times, want exactly once", sink.closes)
	}
	// The partial aggregate must still finalize.
	tables := res.ComputeTables()
	if tables.Funnel.FTPServers < 0 {
		t.Error("truncated tables failed to compute")
	}
}

// TestShardedCensusValidation: shard counts beyond the source-address
// budget and oversized per-shard fleets are rejected up front.
func TestShardedCensusValidation(t *testing.T) {
	if _, err := NewShardedCensus(CensusConfig{Scale: 131072}, maxShards+1); err == nil {
		t.Error("oversized shard count accepted")
	}
	if _, err := NewShardedCensus(CensusConfig{Scale: 131072, EnumWorkers: shardSourceStride + 1}, 2); err == nil {
		t.Error("per-shard worker count exceeding the source block accepted")
	}
	sc, err := NewShardedCensus(CensusConfig{Scale: 131072}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Shards != 1 {
		t.Errorf("shards normalized to %d, want 1", sc.Shards)
	}
}
