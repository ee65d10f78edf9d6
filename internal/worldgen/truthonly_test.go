package worldgen

import (
	"sync"
	"testing"

	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// TestOpenMatchesTruth: the probe fast path's presence decision must agree
// exactly with the full Truth derivation for every address.
func TestOpenMatchesTruth(t *testing.T) {
	w := testWorld(t, 65536)
	base := uint64(w.ScanBase)
	limit := w.ScanSize
	if limit > 60000 {
		limit = 60000
	}
	open := 0
	for off := uint64(0); off < limit; off++ {
		ip := simnet.IP(base + off)
		_, present := w.Truth(ip)
		if got := w.Open(ip); got != present {
			t.Fatalf("Open(%s) = %v, Truth present = %v", ip, got, present)
		}
		if present {
			open++
		}
	}
	if open == 0 {
		t.Fatal("no open hosts in sweep; test vacuous")
	}
	// Addresses outside the scan range must agree too.
	outside := simnet.MustParseIP("250.0.0.7")
	if _, present := w.Truth(outside); w.Open(outside) != present {
		t.Error("Open disagrees with Truth outside the scan range")
	}
}

// TestPortOpenOnlyPort21: every simulated host listens on 21 alone, so the
// fast path refuses other ports without deriving truth.
func TestPortOpenOnlyPort21(t *testing.T) {
	w := testWorld(t, 65536)
	base := uint64(w.ScanBase)
	for off := uint64(0); off < 2000; off++ {
		ip := simnet.IP(base + off)
		if w.PortOpen(ip, 2121) {
			t.Fatalf("PortOpen(%s, 2121) = true", ip)
		}
		if w.PortOpen(ip, 21) != w.Open(ip) {
			t.Fatalf("PortOpen(%s, 21) disagrees with Open", ip)
		}
	}
}

// TestProbeDoesNotMaterialize: truth-only discovery — a full probe sweep
// builds zero hosts; only an actual connection materializes one, and its
// close evicts it again.
func TestProbeDoesNotMaterialize(t *testing.T) {
	w := testWorld(t, 65536)
	reg := obs.NewRegistry()
	w.BindMetrics(reg)
	nw := simnet.NewNetwork(w)
	base := uint64(w.ScanBase)
	var firstOpen simnet.IP
	found := 0
	for off := uint64(0); off < w.ScanSize; off++ {
		ip := simnet.IP(base + off)
		if nw.Probe(ip, 21, 0) {
			if found == 0 {
				firstOpen = ip
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("probe sweep found no hosts")
	}
	if got := w.MaterializedHosts(); got != 0 {
		t.Fatalf("probe sweep materialized %d hosts, want 0", got)
	}
	conn, err := nw.DialFrom(simnet.MustParseIP("250.0.0.1"), firstOpen, 21)
	if err != nil {
		t.Fatalf("DialFrom(%s): %v", firstOpen, err)
	}
	if got := w.MaterializedHosts(); got != 1 {
		t.Fatalf("during one dial, %d hosts resident, want 1", got)
	}
	conn.Close()
	w.WaitIdle()
	if got := reg.Counter("world.materialized").Load(); got != 1 {
		t.Fatalf("after one dial, materialized %d hosts, want 1", got)
	}
	if got := w.MaterializedHosts(); got != 0 {
		t.Fatalf("after the dial closed, %d hosts resident, want 0", got)
	}
}

// TestLookupShardedConcurrent: concurrent Lookups across the sharded host
// cache return one stable entry per address.
func TestLookupShardedConcurrent(t *testing.T) {
	w := testWorld(t, 65536)
	base := uint64(w.ScanBase)
	var opens []simnet.IP
	for off := uint64(0); off < w.ScanSize && len(opens) < 32; off++ {
		ip := simnet.IP(base + off)
		if w.Open(ip) {
			opens = append(opens, ip)
		}
	}
	if len(opens) == 0 {
		t.Fatal("no open hosts")
	}
	entries := make([][]simnet.Host, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entries[g] = make([]simnet.Host, len(opens))
			for i, ip := range opens {
				entries[g][i] = w.Lookup(ip)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range opens {
			if entries[g][i] != entries[0][i] {
				t.Fatalf("goroutine %d saw a different entry for %s", g, opens[i])
			}
		}
	}
	if got := w.MaterializedHosts(); got != len(opens) {
		t.Errorf("materialized %d hosts, want %d", got, len(opens))
	}
}
