package core

import (
	"testing"
	"time"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/worldgen"
)

// chaosCensus runs a census over a fully or partially hostile world with
// short enumerator budgets so fault paths trigger quickly, collecting the
// streamed records.
func chaosCensus(t *testing.T, rate float64, scale int) (*Census, *Result, []*dataset.HostRecord) {
	t.Helper()
	return collectCensus(t, CensusConfig{
		Seed:        7,
		Scale:       scale,
		HostileRate: rate,
		FaultMix:    worldgen.DefaultFaultMix(),
		EnumTimeout: 700 * time.Millisecond,
		HostBudget:  3 * time.Second,
		Metrics:     obs.NewRegistry(),
	})
}

// TestChaosCensusDropsNoHosts: with every FTP host hostile, the census must
// still terminate and account for every responsive address — each one
// yields a record (possibly partial, possibly an outright classified
// failure), never a silent drop or a hang.
func TestChaosCensusDropsNoHosts(t *testing.T) {
	c, res, records := chaosCensus(t, 1.0, 131072)

	if res.Observed == 0 {
		t.Fatal("hostile census observed no hosts")
	}
	if uint64(res.Observed) != res.Responded {
		t.Fatalf("observed %d records for %d responsive hosts — hosts dropped silently",
			res.Observed, res.Responded)
	}

	r := res.Robustness
	if r.Partial == 0 {
		t.Error("no partial records in a fully hostile world")
	}
	if len(r.Failures) < 3 {
		t.Errorf("failure classes seen: %v, want at least 3 distinct classes", r.Failures)
	}

	// Degradation invariant: a partial record always names its failure.
	for _, rec := range records {
		if rec.Partial && rec.FailureClass == "" {
			t.Errorf("%s: partial record without a failure class", rec.IP)
		}
	}

	// The fault paths end every connection they open, so each host they
	// pinned was released and, written by nobody, evicted.
	if n := c.Config.Metrics.Gauge("world.resident").Load(); n != 0 {
		t.Errorf("world.resident=%d after a hostile census, want 0", n)
	}
}

// TestChaosMixedWorldStillAnalyzes: at a realistic hostile fraction the
// benign majority must still produce the analysis tables while the hostile
// tail shows up in the robustness counters.
func TestChaosMixedWorldStillAnalyzes(t *testing.T) {
	_, res, _ := chaosCensus(t, 0.3, 131072)

	if uint64(res.Observed) != res.Responded {
		t.Fatalf("observed %d != responded %d", res.Observed, res.Responded)
	}
	r := res.Robustness
	if r.Partial == 0 && len(r.Failures) == 0 {
		t.Error("30%% hostile world produced no fault evidence")
	}
	if r.Partial >= res.Observed {
		t.Errorf("every record partial (%d of %d) — benign majority lost",
			r.Partial, res.Observed)
	}

	tables := res.ComputeTables()
	if tables.Funnel.FTPServers == 0 {
		t.Error("no FTP servers measured in mixed world")
	}
	if tables.Funnel.AnonServers == 0 {
		t.Error("no anonymous servers measured in mixed world")
	}
}

// TestBenignCensusHasQuietCounters: with HostileRate zero the degradation
// layer must stay out of the way — no partial records, no skipped subtrees,
// no fault evidence on any host that spoke FTP.
func TestBenignCensusHasQuietCounters(t *testing.T) {
	c, res, records := collectCensus(t, CensusConfig{Seed: 7, Scale: 131072})
	if c.Network.Faults != nil {
		t.Error("benign census wired a fault injector")
	}
	r := res.Robustness
	if r.Partial != 0 || r.SkippedDirs != 0 {
		t.Errorf("benign world shows degradation: %+v", r)
	}
	if r.DataBytes == 0 {
		t.Error("no data-channel bytes accounted")
	}
	// Non-FTP hosts that close silently or spew junk banners are honestly
	// classified (eof/protocol), so Failures need not be empty — but no
	// host that actually spoke FTP may carry fault evidence.
	for _, rec := range records {
		if rec.FTP && (rec.Partial || rec.FailureClass != "") {
			t.Errorf("%s: benign FTP host carries fault evidence %q", rec.IP, rec.FailureClass)
		}
	}
}
