package core

import (
	"context"
	"testing"

	"ftpcloud/internal/obs"
)

// TestCensusMetricsEndToEnd: one registry wired through CensusConfig must
// collect every stage — simnet transport counters, zmap probe counters,
// enumerator latency histograms, and the drain-side census ledger — and
// the registry's numbers must agree with the result's.
func TestCensusMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(CensusConfig{Seed: 7, Scale: 32768, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["zmap.probed"]; got != res.Probed {
		t.Errorf("zmap.probed=%d, result says %d", got, res.Probed)
	}
	if got := snap.Counters["zmap.responded"]; got != res.Responded {
		t.Errorf("zmap.responded=%d, result says %d", got, res.Responded)
	}
	if got := snap.Counters["census.observed"]; got != uint64(res.Observed) {
		t.Errorf("census.observed=%d, result says %d", got, res.Observed)
	}
	if got := snap.Counters["census.drained"]; got != uint64(res.Observed) {
		t.Errorf("census.drained=%d, want %d (no sink errors)", got, res.Observed)
	}
	if snap.Counters["simnet.probes"] < snap.Counters["zmap.probed"] {
		t.Errorf("simnet.probes=%d below zmap.probed=%d",
			snap.Counters["simnet.probes"], snap.Counters["zmap.probed"])
	}
	if snap.Counters["simnet.dials"] == 0 {
		t.Error("simnet.dials never counted")
	}
	if got := snap.Counters["enum.hosts"]; got != uint64(res.Observed) {
		t.Errorf("enum.hosts=%d, want %d", got, res.Observed)
	}
	if got := snap.Gauges["enum.inflight"]; got != 0 {
		t.Errorf("enum.inflight=%d after the run, want 0", got)
	}

	// The per-interaction latency histograms the paper-adjacent LZR work
	// leans on must be populated: every host dials and reads a banner,
	// and anonymous hosts get listed.
	for _, name := range []string{
		"enum.latency.dial", "enum.latency.banner",
		"enum.latency.list", "enum.latency.cmd", "enum.host_seconds",
	} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s is empty", name)
		}
	}
}

// TestHoneypotStudyMetrics: the §VIII runner wires the same registry layer.
func TestHoneypotStudyMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := HoneypotStudy(context.Background(), HoneypotStudyConfig{
		Seed: 3, Honeypots: 2, Attackers: 30, Concentrated: 0.3, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["honeypot.events"] == 0 {
		t.Error("honeypot.events never counted")
	}
	if got := snap.Counters["attacker.bots"]; got != 30 {
		t.Errorf("attacker.bots=%d, want 30", got)
	}
	if snap.Counters["attacker.sessions"] == 0 {
		t.Error("attacker.sessions never counted")
	}
}

// TestCensusScanCountersPinned pins discovery's counters for the ftpbench
// census configuration (seed 42, scale 4096, 2% loss, 2 retries): a closed
// address costs retries+1 probes and an open one stops at its first
// undropped attempt, and batching the counters must not move a count.
func TestCensusScanCountersPinned(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(CensusConfig{Seed: 42, Scale: 4096, EnumWorkers: 64, Retries: 2, LossRate: 0.02, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"zmap.probed":        899_598,
		"simnet.probes":      2_688_429,
		"simnet.probes_open": 5_235,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
