package zmap

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ftpcloud/internal/simnet"
)

// TestScannerWorkersPartitionProbes: under the batched fan-out, the probe
// workers partition the offset space exactly — every offset probed once,
// none skipped — whatever the worker count, and with a space that is no
// multiple of the batch size.
func TestScannerWorkersPartitionProbes(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	const size = 4099 // prime: never a multiple of BatchSize
	hosts := &sparseHosts{base: base, every: 7, size: size}
	nw := simnet.NewNetwork(hosts)

	for _, workers := range []int{2, 3, 5} {
		s, err := NewScanner(Config{
			Network: nw, Base: base, Size: size, Port: 21, Seed: 9,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if probed := s.Stats.Probed.Load(); probed != size {
			t.Errorf("%d workers probed %d offsets, want %d", workers, probed, size)
		}
		seen := make(map[simnet.IP]int)
		for _, r := range results {
			seen[r.IP]++
		}
		if want := size/7 + 1; len(seen) != want {
			t.Errorf("%d workers found %d hosts, want %d", workers, len(seen), want)
		}
		for ip, n := range seen {
			if n != 1 {
				t.Errorf("%d workers: %s found %d times", workers, ip, n)
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
