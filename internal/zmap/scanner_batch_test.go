package zmap

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ftpcloud/internal/simnet"
)

// TestScannerShardsPartitionProbes: under the batched fan-out, shards must
// partition the offset space exactly — every offset probed by exactly one
// shard, none skipped — including when the shard count does not divide the
// space evenly.
func TestScannerShardsPartitionProbes(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	const size = 4099 // prime: never a multiple of the shard count
	hosts := &sparseHosts{base: base, every: 7, size: size}
	nw := simnet.NewNetwork(hosts)

	for _, shards := range []int{2, 3, 5} {
		seen := make(map[simnet.IP]int)
		var probed uint64
		for shard := 0; shard < shards; shard++ {
			s, err := NewScanner(Config{
				Network: nw, Base: base, Size: size, Port: 21, Seed: 9,
				Shard: shard, TotalShards: shards, Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			results, err := s.Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			probed += s.Stats.Probed.Load()
			for _, r := range results {
				seen[r.IP]++
			}
		}
		if probed != size {
			t.Errorf("%d shards probed %d offsets, want %d", shards, probed, size)
		}
		want := size/7 + 1
		if len(seen) != want {
			t.Errorf("%d shards found %d hosts, want %d", shards, len(seen), want)
		}
		for ip, n := range seen {
			if n != 1 {
				t.Errorf("%d shards: %s found %d times", shards, ip, n)
			}
		}
	}
}

// TestScannerRateCapTolerance: the batched producer still accounts the rate
// budget per offset, so the effective probe rate stays at the cap within
// tolerance — neither instant (cap ignored) nor wildly over.
func TestScannerRateCapTolerance(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	const size = 1000
	const rate = 2500
	hosts := &sparseHosts{base: base, every: 4, size: size}
	nw := simnet.NewNetwork(hosts)
	s, err := NewScanner(Config{
		Network: nw, Base: base, Size: size, Port: 21, Seed: 13,
		RatePerSec: rate, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	ideal := time.Duration(float64(size) / rate * float64(time.Second))
	if elapsed < ideal*4/10 {
		t.Errorf("rate cap not respected: %d probes at %d/s took %v (ideal %v)",
			size, rate, elapsed, ideal)
	}
	if effective := float64(size) / elapsed.Seconds(); effective > 2*rate {
		t.Errorf("effective rate %.0f/s exceeds cap %d/s by more than 2x", effective, rate)
	}
}

// TestScannerRateCapWithShards: rate limiting composes with sharding —
// RatePerSec is the global cap, so each shard throttles to its
// EffectiveRate share and the strided walk covers only the offsets the
// shard owns.
func TestScannerRateCapWithShards(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	const size = 2000
	hosts := &sparseHosts{base: base, every: 4, size: size}
	nw := simnet.NewNetwork(hosts)
	s, err := NewScanner(Config{
		Network: nw, Base: base, Size: size, Port: 21, Seed: 13,
		RatePerSec: 5000, Workers: 4, Shard: 1, TotalShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EffectiveRate(); got != 2500 {
		t.Fatalf("shard 1 of 2 at 5000/s global: EffectiveRate = %d, want 2500", got)
	}
	start := time.Now()
	if _, err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The shard owns ~1000 offsets; at its 2500/s share that is ≥ ~400ms
	// of ticks.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("sharded rate cap not applied: took %v", elapsed)
	}
	if probed := s.Stats.Probed.Load(); probed != size/2 {
		t.Errorf("shard probed %d offsets, want %d", probed, size/2)
	}
}

// TestEffectiveRateSumsToGlobalCap: across all shards the per-shard shares
// sum exactly to the configured RatePerSec, for caps that divide evenly and
// ones that leave a remainder.
func TestEffectiveRateSumsToGlobalCap(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	nw := simnet.NewNetwork(&sparseHosts{base: base, every: 4, size: 64})
	for _, tc := range []struct{ rate, shards int }{
		{1000, 1}, {1000, 4}, {1001, 4}, {997, 8}, {5, 3},
	} {
		sum := 0
		for shard := 0; shard < tc.shards; shard++ {
			s, err := NewScanner(Config{
				Network: nw, Base: base, Size: 64, Port: 21,
				RatePerSec: tc.rate, Shard: shard, TotalShards: tc.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			share := s.EffectiveRate()
			if share < 1 {
				t.Errorf("rate=%d shards=%d: shard %d got share %d < 1", tc.rate, tc.shards, shard, share)
			}
			sum += share
		}
		if sum != tc.rate {
			t.Errorf("rate=%d shards=%d: shares sum to %d, want exact global cap", tc.rate, tc.shards, sum)
		}
	}
	// More shards than the cap: every shard clamps to 1 probe/s, so the
	// aggregate overshoots by at most shards-1 — the documented tradeoff
	// for never stalling a shard.
	sum := 0
	for shard := 0; shard < 8; shard++ {
		s, err := NewScanner(Config{
			Network: nw, Base: base, Size: 64, Port: 21,
			RatePerSec: 3, Shard: shard, TotalShards: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum += s.EffectiveRate()
	}
	if sum != 8 {
		t.Errorf("rate=3 shards=8: clamped shares sum to %d, want 8 (1 each)", sum)
	}
}

// TestRunBatchesMatchesRun: the flat Run adapter delivers exactly the hosts
// RunBatches discovers.
func TestRunBatchesMatchesRun(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	hosts := &sparseHosts{base: base, every: 11, size: 5000}
	nw := simnet.NewNetwork(hosts)

	mk := func() *Scanner {
		s, err := NewScanner(Config{Network: nw, Base: base, Size: 5000, Port: 21, Seed: 21, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	fromBatches := make(map[simnet.IP]bool)
	batchCh := make(chan []Result, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range batchCh {
			if len(batch) == 0 {
				t.Error("empty batch delivered")
			}
			if len(batch) > BatchSize {
				t.Errorf("batch of %d exceeds BatchSize %d", len(batch), BatchSize)
			}
			for _, r := range batch {
				fromBatches[r.IP] = true
			}
		}
	}()
	if err := mk().RunBatches(context.Background(), batchCh); err != nil {
		t.Fatal(err)
	}
	<-done

	fromRun := make(map[simnet.IP]bool)
	flat := make(chan Result, 16)
	done = make(chan struct{})
	go func() {
		defer close(done)
		for r := range flat {
			fromRun[r.IP] = true
		}
	}()
	if err := mk().Run(context.Background(), flat); err != nil {
		t.Fatal(err)
	}
	<-done

	if len(fromBatches) != len(fromRun) {
		t.Fatalf("RunBatches found %d hosts, Run found %d", len(fromBatches), len(fromRun))
	}
	for ip := range fromRun {
		if !fromBatches[ip] {
			t.Errorf("host %s missing from batched results", ip)
		}
	}
	want := 5000/11 + 1
	if len(fromRun) != want {
		t.Errorf("found %d hosts, want %d", len(fromRun), want)
	}
}

// TestRunBatchesCancellation: a cancelled batched scan terminates and
// reports the context error.
func TestRunBatchesCancellation(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	hosts := &sparseHosts{base: base, every: 2, size: 1 << 20}
	nw := simnet.NewNetwork(hosts)
	s, err := NewScanner(Config{
		Network: nw, Base: base, Size: 1 << 20, Port: 21, Seed: 3,
		RatePerSec: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	out := make(chan []Result, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range out {
		}
	}()
	if err := s.RunBatches(ctx, out); err == nil {
		t.Error("cancelled batched scan returned nil error")
	}
	<-done
	if probed := s.Stats.Probed.Load(); probed >= 1<<20 {
		t.Error("scan completed despite cancellation")
	}
}

// TestEffectiveRateFloorMixedShards covers the regime where the shard count
// exceeds RatePerSec but a remainder still exists: remainder shards take
// their +1 while the rest clamp to the 1 probe/s floor. The invariants that
// must hold everywhere: no shard below 1, remainder spread over the
// lowest-numbered shards only, and the aggregate within [rate, rate+N-1].
func TestEffectiveRateFloorMixedShards(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	nw := simnet.NewNetwork(&sparseHosts{base: base, every: 4, size: 64})
	for _, tc := range []struct{ rate, shards int }{
		{5, 8},  // shards 0-4 get the remainder 1s, shards 5-7 clamp to the floor
		{1, 63}, // extreme: one remainder shard, 62 floored
		{7, 12},
		{62, 63},
	} {
		shares := make([]int, tc.shards)
		sum := 0
		for shard := 0; shard < tc.shards; shard++ {
			s, err := NewScanner(Config{
				Network: nw, Base: base, Size: 64, Port: 21,
				RatePerSec: tc.rate, Shard: shard, TotalShards: tc.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			shares[shard] = s.EffectiveRate()
			if shares[shard] < 1 {
				t.Fatalf("rate=%d shards=%d: shard %d share %d < 1 floor",
					tc.rate, tc.shards, shard, shares[shard])
			}
			sum += shares[shard]
		}
		// rate < shards ⇒ base share is 0: remainder shards get exactly 1
		// from the +1, floor-clamped shards also sit at 1, so every share
		// is exactly the floor and the aggregate is exactly the shard
		// count — the documented worst-case overshoot.
		for shard, share := range shares {
			if share != 1 {
				t.Errorf("rate=%d shards=%d: shard %d share = %d, want 1",
					tc.rate, tc.shards, shard, share)
			}
		}
		if sum < tc.rate || sum > tc.rate+tc.shards-1 {
			t.Errorf("rate=%d shards=%d: aggregate %d outside [rate, rate+N-1]",
				tc.rate, tc.shards, sum)
		}
		if sum != tc.shards {
			t.Errorf("rate=%d shards=%d: aggregate = %d, want %d (1 per shard)",
				tc.rate, tc.shards, sum, tc.shards)
		}
	}
}

// truthCounter answers probes by sparseHosts' rule through the PortOpen
// fast path and counts every truth read.
type truthCounter struct {
	sparseHosts
	reads atomic.Uint64
}

func (c *truthCounter) PortOpen(ip simnet.IP, port uint16) bool {
	c.reads.Add(1)
	return port == 21 && c.sparseHosts.Lookup(ip) != nil
}

// TestScanReadsTruthOncePerAddress: only the loss draw depends on the
// attempt, so a lossy scan with retries reads each address's truth once,
// however many attempts it sends — and still finds every host the
// per-attempt loop over Probe would.
func TestScanReadsTruthOncePerAddress(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	const size = 5000
	hosts := &truthCounter{sparseHosts: sparseHosts{base: base, every: 11, size: size}}
	nw := simnet.NewNetwork(hosts)
	nw.LossRate, nw.LossSeed = 0.3, 9
	const retries = 3
	s, err := NewScanner(Config{Network: nw, Base: base, Size: size, Port: 21, Seed: 3, Workers: 8, Retries: retries})
	if err != nil {
		t.Fatal(err)
	}
	found, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reads, probed := hosts.reads.Load(), s.Stats.Probed.Load(); probed != size || reads != probed {
		t.Errorf("%d truth reads for %d probed addresses, want one each of %d", reads, probed, size)
	}
	if sent := nw.Stats.Probes.Load(); sent <= size {
		t.Errorf("%d probes sent for %d addresses: retries never ran", sent, size)
	}
	want := 0
	for off := uint64(0); off < size; off += 11 {
		ip := simnet.IP(uint64(base) + off)
		for attempt := 0; attempt <= retries; attempt++ {
			if nw.Probe(ip, 21, attempt) {
				want++
				break
			}
		}
	}
	if len(found) != want {
		t.Errorf("scan found %d hosts, the per-attempt loop finds %d", len(found), want)
	}
}
