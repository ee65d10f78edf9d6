package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/worldgen"
)

// runWithIdentify reruns the same census (same world — certificates vary
// across world builds, so equivalence must compare runs over one world) with
// the identification stage toggled, collecting the streamed records.
func runWithIdentify(t *testing.T, c *Census, on bool) (*Result, []*dataset.HostRecord) {
	t.Helper()
	coll := &dataset.Collector{}
	c.Config.Identify = on
	c.Config.StreamTo = coll
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("census run (identify=%v): %v", on, err)
	}
	return res, coll.Records
}

// truthCounts tallies the world's ground truth: FTP hosts and open non-FTP
// endpoints in the scanned range.
func truthCounts(w *worldgen.World) (ftp, nonFTP int) {
	base := uint64(w.ScanBase)
	for off := uint64(0); off < w.ScanSize; off++ {
		truth, ok := w.Truth(simnet.IP(base + off))
		if !ok {
			continue
		}
		if truth.FTP {
			ftp++
		}
		if truth.NonFTPOpen {
			nonFTP++
		}
	}
	return ftp, nonFTP
}

// TestIdentifyPureFTPByteIdentical: on a world where every open endpoint is
// FTP, the three-stage funnel is a pure pass-through — the rendered paper
// tables, the robustness ledger, and the observed count are byte-identical
// to the pre-funnel two-stage pipeline, and the shed ledger stays empty.
func TestIdentifyPureFTPByteIdentical(t *testing.T) {
	p := worldgen.DefaultParams(7, 131072)
	p.FTPRateOfOpen = 1 // every open port speaks FTP
	c, err := NewCensus(CensusConfig{
		Seed:         7,
		Scale:        131072,
		Params:       &p,
		IdentifyWait: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy, _ := runWithIdentify(t, c, false)
	funnel, records := runWithIdentify(t, c, true)

	lt, ft := legacy.ComputeTables(), funnel.ComputeTables()
	if lt.Render() != ft.Render() {
		t.Error("identify on/off render different paper tables on a pure-FTP world")
	}
	if ft.RenderFull() != ft.Render() {
		t.Error("empty shed ledger still changed RenderFull output")
	}
	if !reflect.DeepEqual(legacy.Robustness, funnel.Robustness) {
		t.Errorf("robustness diverges:\n legacy %+v\n funnel %+v", legacy.Robustness, funnel.Robustness)
	}
	if legacy.Observed != funnel.Observed {
		t.Errorf("observed %d with identify, %d without", funnel.Observed, legacy.Observed)
	}
	if ft.Unexpected.Total != 0 {
		t.Errorf("pure-FTP world shed %d endpoints", ft.Unexpected.Total)
	}
	for _, rec := range records {
		if rec.Service != "" {
			t.Fatalf("%s: pure-FTP record carries service %q", rec.IP, rec.Service)
		}
	}
}

// TestIdentifyMixedWorldSheds: the acceptance property of the staged
// funnel — on a mixed world every non-FTP endpoint is shed after exactly one
// identification round-trip (one dial per discovered endpoint, counted by
// identify.*), every true FTP endpoint is enumerated, and the paper tables
// come out byte-identical to the two-stage pipeline that burned a full
// enumeration slot on every service host.
func TestIdentifyMixedWorldSheds(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(CensusConfig{
		Seed:         7,
		Scale:        262144,
		ServiceMix:   worldgen.DefaultServiceMix(),
		IdentifyWait: 150 * time.Millisecond,
		EnumTimeout:  time.Second, // keep the legacy run's silent-host timeouts short
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ftpHosts, nonFTP := truthCounts(c.World)
	if nonFTP == 0 {
		t.Fatal("mixed world generated no service hosts — test is vacuous")
	}

	legacy, _ := runWithIdentify(t, c, false)
	before := reg.Snapshot()
	funnel, records := runWithIdentify(t, c, true)
	delta := reg.Snapshot().Sub(before)

	// One identification round-trip per discovered endpoint, no retries.
	open := uint64(ftpHosts + nonFTP)
	if got := delta.Counters["identify.dials"]; got != open {
		t.Errorf("identify.dials = %d, want exactly one per endpoint (%d)", got, open)
	}
	if got := delta.Counters["identify.passed"]; got != uint64(ftpHosts) {
		t.Errorf("identify.passed = %d, want %d FTP hosts", got, ftpHosts)
	}
	if got := delta.Counters["identify.shed"]; got != uint64(nonFTP) {
		t.Errorf("identify.shed = %d, want all %d service hosts", got, nonFTP)
	}
	if got := delta.Counters["identify.errors"]; got != 0 {
		t.Errorf("benign mixed world produced %d identify errors", got)
	}

	// The shed ledger accounts for every service host, by protocol.
	ft := funnel.ComputeTables()
	if ft.Unexpected.Total != nonFTP {
		t.Errorf("unexpected-services ledger holds %d endpoints, want %d", ft.Unexpected.Total, nonFTP)
	}
	sum := 0
	for _, s := range ft.Unexpected.Services {
		if s.Protocol == "ftp" || s.Protocol == "" {
			t.Errorf("shed ledger carries protocol %q", s.Protocol)
		}
		sum += s.Count
	}
	if sum != ft.Unexpected.Total {
		t.Errorf("ledger rows sum to %d, total %d", sum, ft.Unexpected.Total)
	}

	// Every record is consistently labeled: FTP records never carry a
	// service, shed records always do.
	for _, rec := range records {
		if rec.FTP && rec.Service != "" {
			t.Errorf("%s: FTP record carries service %q", rec.IP, rec.Service)
		}
		if !rec.FTP && rec.Service == "" {
			t.Errorf("%s: shed record missing its sniffed service", rec.IP)
		}
	}

	// Paper tables are unchanged by how non-FTP endpoints were disposed
	// of: the funnel's open/FTP counts match, and every FTP-gated table is
	// fed identical records.
	if legacy.ComputeTables().Render() != ft.Render() {
		t.Error("identify on/off render different paper tables on a mixed world")
	}
	if legacy.Observed != funnel.Observed {
		t.Errorf("observed %d with identify, %d without — both pipelines must record every open endpoint",
			funnel.Observed, legacy.Observed)
	}
}

// TestIdentifyWorkersUnexpectedTable: the unexpected-services table (and
// the full report) does not depend on the worker counts — the shed ledger is
// an additive fold with deterministic tie-breaking like every other
// accumulator, so four times the default scanner, identification and
// enumeration workers fold it byte-identically. Each run's identify.shed
// counter equals the ledger's total.
func TestIdentifyWorkersUnexpectedTable(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(CensusConfig{
		Seed:         7,
		Scale:        262144,
		ServiceMix:   worldgen.DefaultServiceMix(),
		Identify:     true,
		IdentifyWait: 150 * time.Millisecond,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want Tables
	for _, mult := range workerScales {
		// Both runs share c's world, so they meet the same hosts.
		c.Config = withWorkers(c.Config, mult)
		before := reg.Snapshot()
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		shed := reg.Snapshot().Sub(before).Counters["identify.shed"]
		got := res.ComputeTables()
		if got.Unexpected.Total == 0 {
			t.Fatalf("%dx workers: the run shed nothing — test is vacuous", mult)
		}
		if shed != uint64(got.Unexpected.Total) {
			t.Errorf("%dx workers: identify.shed counted %d, ledger holds %d", mult, shed, got.Unexpected.Total)
		}
		if mult == 1 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.Unexpected, want.Unexpected) {
			t.Errorf("%dx workers: unexpected-services table diverges:\n got %+v\nwant %+v",
				mult, got.Unexpected, want.Unexpected)
		}
		if g, w := got.RenderFull(), want.RenderFull(); g != w {
			t.Errorf("%dx workers: full report diverges from the default-workers run (%d vs %d bytes)",
				mult, len(g), len(w))
		}
	}
}

// TestIdentifyChaosHostileMixedCensus: with transport faults on FTP and
// service hosts alike, the staged funnel still accounts for every endpoint
// exactly once — dials balance against passed+shed, the drain records one
// ledger entry per endpoint, and the run neither hangs nor double-counts.
// Faulted FTP hosts may legally shed (a pre-banner reset looks dead from one
// connection); what is not legal is losing or duplicating an endpoint.
func TestIdentifyChaosHostileMixedCensus(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(CensusConfig{
		Seed:         7,
		Scale:        262144,
		ServiceMix:   worldgen.DefaultServiceMix(),
		HostileRate:  0.4,
		FaultMix:     worldgen.DefaultFaultMix(),
		Identify:     true,
		IdentifyWait: 300 * time.Millisecond,
		EnumTimeout:  1500 * time.Millisecond,
		HostBudget:   6 * time.Second,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	dials := snap.Counters["identify.dials"]
	passed := snap.Counters["identify.passed"]
	shed := snap.Counters["identify.shed"]
	if dials == 0 || passed == 0 || shed == 0 {
		t.Fatalf("hostile mixed census exercised nothing: dials=%d passed=%d shed=%d", dials, passed, shed)
	}
	if passed+shed != dials {
		t.Errorf("identification ledger out of balance: %d passed + %d shed != %d dials", passed, shed, dials)
	}
	if uint64(res.Observed) != dials {
		t.Errorf("observed %d records for %d identified endpoints — every endpoint must yield exactly one record",
			res.Observed, dials)
	}
	tables := res.ComputeTables()
	if tables.Unexpected.Total != int(shed) {
		t.Errorf("shed ledger holds %d, identify.shed counted %d", tables.Unexpected.Total, shed)
	}
	if res.Robustness.Records != res.Observed {
		t.Errorf("robustness records %d != observed %d", res.Robustness.Records, res.Observed)
	}
}
