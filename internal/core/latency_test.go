package core

import (
	"context"
	"testing"
	"time"

	"ftpcloud/internal/simnet"
)

// TestCensusWithRealisticLatency verifies the pipeline completes and finds
// the same hosts when every connection pays a 5–150ms setup latency.
func TestCensusWithRealisticLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency run costs wall-clock time")
	}
	fast, err := NewCensus(CensusConfig{Seed: 7, Scale: 262144})
	if err != nil {
		t.Fatal(err)
	}
	fastRes, err := fast.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	slow, err := NewCensus(CensusConfig{Seed: 7, Scale: 262144, RealisticLatency: true, EnumWorkers: 64})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	slowRes, err := slow.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	if slowRes.Observed != fastRes.Observed {
		t.Errorf("latency changed discovery: %d vs %d hosts",
			slowRes.Observed, fastRes.Observed)
	}
	fastFunnel := fastRes.ComputeTables().Funnel
	slowFunnel := slowRes.ComputeTables().Funnel
	if fastFunnel != slowFunnel {
		t.Errorf("latency changed measurements: %+v vs %+v", slowFunnel, fastFunnel)
	}
	// Latency must actually have been paid (each enumeration opens
	// several connections at ≥5ms each).
	if slowRes.EnumDuration <= fastRes.EnumDuration {
		t.Logf("enum durations: fast=%v slow=%v (elapsed %v)",
			fastRes.EnumDuration, slowRes.EnumDuration, elapsed)
	}
}

// TestLatencyModelDeterministic checks per-pair stability.
func TestLatencyModelDeterministic(t *testing.T) {
	c, err := NewCensus(CensusConfig{Seed: 9, Scale: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	m := c.World.LatencyModel()
	a := m(1, 2)
	for i := 0; i < 10; i++ {
		if m(1, 2) != a {
			t.Fatal("latency not stable per pair")
		}
	}
	if a < 5*time.Millisecond || a >= 150*time.Millisecond {
		t.Errorf("latency %v out of range", a)
	}
	diverse := false
	for i := uint32(0); i < 32; i++ {
		if m(1, 2+simnet.IP(i)) != a {
			diverse = true
			break
		}
	}
	if !diverse {
		t.Error("latency identical across pairs")
	}
}
