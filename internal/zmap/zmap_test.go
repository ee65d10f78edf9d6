package zmap

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"ftpcloud/internal/simnet"
)

func TestPermutationCoversExactlyOnce(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 100, 1000, 4096, 10007} {
		perm, err := NewPermutation(n, 42)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := make(map[uint64]bool, n)
		for {
			v, ok := perm.Next()
			if !ok {
				break
			}
			if v >= n {
				t.Fatalf("n=%d: out-of-range value %d", n, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate value %d", n, v)
			}
			seen[v] = true
		}
		if uint64(len(seen)) != n {
			t.Fatalf("n=%d: covered %d values", n, len(seen))
		}
	}
}

// Property: every (n, seed) pair yields a bijection on [0, n).
func TestPermutationBijectionProperty(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := uint64(nRaw)%500 + 1
		perm, err := NewPermutation(n, seed)
		if err != nil {
			return false
		}
		seen := make(map[uint64]bool, n)
		for {
			v, ok := perm.Next()
			if !ok {
				break
			}
			if v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return uint64(len(seen)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPermutationNotSequential(t *testing.T) {
	perm, err := NewPermutation(10000, 7)
	if err != nil {
		t.Fatal(err)
	}
	sequentialPairs := 0
	prev, _ := perm.Next()
	for i := 0; i < 1000; i++ {
		v, ok := perm.Next()
		if !ok {
			break
		}
		if v == prev+1 {
			sequentialPairs++
		}
		prev = v
	}
	if sequentialPairs > 20 {
		t.Errorf("permutation looks sequential: %d adjacent pairs in 1000", sequentialPairs)
	}
}

func TestPermutationReset(t *testing.T) {
	perm, err := NewPermutation(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	var first []uint64
	for {
		v, ok := perm.Next()
		if !ok {
			break
		}
		first = append(first, v)
	}
	perm.Reset()
	for i := range first {
		v, ok := perm.Next()
		if !ok || v != first[i] {
			t.Fatalf("reset diverged at %d: %d vs %d", i, v, first[i])
		}
	}
}

func TestPermutationSeedVariation(t *testing.T) {
	a, _ := NewPermutation(1000, 1)
	b, _ := NewPermutation(1000, 99999)
	same := 0
	for i := 0; i < 100; i++ {
		va, _ := a.Next()
		vb, _ := b.Next()
		if va == vb {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds produced near-identical orders (%d/100 equal)", same)
	}
}

func TestPermutationErrors(t *testing.T) {
	if _, err := NewPermutation(0, 1); err == nil {
		t.Error("zero-size permutation accepted")
	}
}

func TestIsPrime(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 101, 7919, 104729, 2147483647}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d) = false", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 100, 7917, 104730, 2147483649}
	for _, c := range composites {
		if isPrime(c) {
			t.Errorf("isPrime(%d) = true", c)
		}
	}
}

// sparseHosts opens port 21 on every k-th address.
type sparseHosts struct {
	base  simnet.IP
	every uint64
	size  uint64
}

func (s *sparseHosts) Lookup(ip simnet.IP) simnet.Host {
	off := uint64(ip) - uint64(s.base)
	if off >= s.size || off%s.every != 0 {
		return nil
	}
	return s
}

func (s *sparseHosts) Listening(port uint16) bool    { return port == 21 }
func (s *sparseHosts) Handler(uint16) simnet.Handler { return nil }

func TestScannerFindsAllHosts(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	hosts := &sparseHosts{base: base, every: 17, size: 10000}
	nw := simnet.NewNetwork(hosts)
	s, err := NewScanner(Config{
		Network: nw, Base: base, Size: 10000, Port: 21, Seed: 5, Workers: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := 10000/17 + 1
	if len(results) != want {
		t.Errorf("found %d hosts, want %d", len(results), want)
	}
	if got := s.Stats.Probed.Load(); got != 10000 {
		t.Errorf("probed %d, want 10000", got)
	}
}

func TestScannerRetriesRecoverLoss(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	hosts := &sparseHosts{base: base, every: 5, size: 5000}
	nw := simnet.NewNetwork(hosts)
	nw.LossRate = 0.3
	nw.LossSeed = 77

	noRetry, err := NewScanner(Config{Network: nw, Base: base, Size: 5000, Port: 21, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := noRetry.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	withRetry, err := NewScanner(Config{Network: nw, Base: base, Size: 5000, Port: 21, Seed: 5, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := withRetry.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	want := 1000
	if len(lossy) >= want {
		t.Errorf("lossless results under 30%% loss: %d", len(lossy))
	}
	if len(recovered) < want*95/100 {
		t.Errorf("retries recovered only %d of %d", len(recovered), want)
	}
}

func TestScannerRateLimit(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	hosts := &sparseHosts{base: base, every: 2, size: 600}
	nw := simnet.NewNetwork(hosts)
	s, err := NewScanner(Config{
		Network: nw, Base: base, Size: 600, Port: 21, Seed: 3,
		RatePerSec: 2000, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 600 probes at 2000/s should take roughly 300ms; allow slack but
	// catch a broken (instant) limiter.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("rate limit not applied: scan took %v", elapsed)
	}
}

func TestScannerCancellation(t *testing.T) {
	base := simnet.MustParseIP("10.0.0.0")
	hosts := &sparseHosts{base: base, every: 2, size: 1 << 20}
	nw := simnet.NewNetwork(hosts)
	s, err := NewScanner(Config{
		Network: nw, Base: base, Size: 1 << 20, Port: 21, Seed: 3,
		RatePerSec: 1000, // slow enough to guarantee cancellation hits mid-scan
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = s.Collect(ctx)
	if err == nil {
		t.Error("cancelled scan returned nil error")
	}
	if probed := s.Stats.Probed.Load(); probed >= 1<<20 {
		t.Error("scan completed despite cancellation")
	}
}

func TestScannerConfigValidation(t *testing.T) {
	nw := simnet.NewNetwork(nil)
	if _, err := NewScanner(Config{Base: 0, Size: 10}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewScanner(Config{Network: nw, Size: 0}); err == nil {
		t.Error("empty range accepted")
	}
}
