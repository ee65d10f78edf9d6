package attacker

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// TestDefaultMixExactN: the population must be exactly n for every n — the
// old mix hardcoded the singleton CVE/Seagate profiles to 1, so small fleets
// overflowed n and the clamped scanner-only remainder hid the bug.
func TestDefaultMixExactN(t *testing.T) {
	for _, n := range []int{1, 8, 457, 10000} {
		bots := DefaultMix(n, 99, 0.30)
		if len(bots) != n {
			t.Errorf("DefaultMix(%d) built %d bots", n, len(bots))
		}
	}
	// Rare profiles scale away below the paper's population and scale up
	// proportionally above it.
	count := func(bots []Bot, p Profile) int {
		c := 0
		for _, b := range bots {
			if b.Profile == p {
				c++
			}
		}
		return c
	}
	small := DefaultMix(100, 99, 0.30)
	if got := count(small, ProfileCVEExploit); got != 0 {
		t.Errorf("n=100: CVE bots = %d, want 0", got)
	}
	big := DefaultMix(10000, 99, 0.30)
	if got := count(big, ProfileCVEExploit); got != 10000/457 {
		t.Errorf("n=10000: CVE bots = %d, want %d", got, 10000/457)
	}
	if got := count(big, ProfileSeagateRAT); got != 10000/457 {
		t.Errorf("n=10000: Seagate bots = %d, want %d", got, 10000/457)
	}
}

// TestCampaignSessionBudget: campaign mode runs exactly the session budget
// against a live target, and identical configs replay identically.
func TestCampaignSessionBudget(t *testing.T) {
	run := func() Stats {
		nw, ip, _ := testTarget(t)
		fleet := &Fleet{
			Network:     nw,
			Bots:        DefaultMix(12, 7, 0.30),
			Targets:     []simnet.IP{ip},
			Sessions:    200,
			Concurrency: 8,
			Timeout:     5 * time.Second,
		}
		return fleet.Run(context.Background())
	}
	stats := run()
	if stats.Sessions != 200 {
		t.Fatalf("campaign ran %d sessions, want 200", stats.Sessions)
	}
	if stats.BotsRun != 12 {
		t.Errorf("campaign used %d bots, want all 12", stats.BotsRun)
	}
	again := run()
	stats.Elapsed, again.Elapsed = 0, 0
	if stats.Sessions != again.Sessions || stats.Errors != again.Errors || stats.BotsRun != again.BotsRun {
		t.Errorf("campaign not reproducible: %+v vs %+v", stats, again)
	}
}

// TestCampaignNeverDialedNotCounted: sessions count only visits that
// actually connected — against a dead network every claim errors and the
// session counter stays at zero.
func TestCampaignNeverDialedNotCounted(t *testing.T) {
	reg := obs.NewRegistry()
	fleet := &Fleet{
		Network:     simnet.NewNetwork(nil),
		Bots:        []Bot{{Source: 1, Profile: ProfileScannerOnly}},
		Targets:     []simnet.IP{simnet.MustParseIP("100.64.0.99")},
		Sessions:    50,
		Concurrency: 4,
		Timeout:     time.Second,
		Metrics:     reg,
	}
	stats := fleet.Run(context.Background())
	if stats.Sessions != 0 {
		t.Errorf("dead target counted %d sessions, want 0", stats.Sessions)
	}
	if stats.Errors != 50 {
		t.Errorf("dead target errors = %d, want 50", stats.Errors)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["attacker.sessions"]; got != 0 {
		t.Errorf("attacker.sessions = %d, want 0", got)
	}
	if got := snap.Counters["attacker.errors"]; got != 50 {
		t.Errorf("attacker.errors = %d, want 50", got)
	}
	if got := snap.Gauges["attacker.inflight"]; got != 0 {
		t.Errorf("attacker.inflight = %d after run, want 0", got)
	}
}

// TestLegacyNeverDialedNotCounted: the paper's one-visit-per-bot-target
// schedule (Sessions zero) obeys the same rule.
func TestLegacyNeverDialedNotCounted(t *testing.T) {
	fleet := &Fleet{
		Network: simnet.NewNetwork(nil),
		Bots:    []Bot{{Source: 1, Profile: ProfileScannerOnly}},
		Targets: []simnet.IP{simnet.MustParseIP("100.64.0.99")},
		Timeout: time.Second,
	}
	stats := fleet.Run(context.Background())
	if stats.Sessions != 0 {
		t.Errorf("dead target counted %d sessions, want 0", stats.Sessions)
	}
	if stats.Errors != 1 || stats.BotsRun != 1 {
		t.Errorf("dead target stats: %+v", stats)
	}
}

// TestChaosCanceledCampaign: cancellation mid-campaign stops the fleet
// promptly, never underflows any stat, and never counts a session that
// wasn't dialed. Runs under the race detector in the chaos suite.
func TestChaosCanceledCampaign(t *testing.T) {
	nw, ip, _ := testTarget(t)
	ctx, cancel := context.WithCancel(context.Background())
	fleet := &Fleet{
		Network:     nw,
		Bots:        DefaultMix(457, 3, 0.30),
		Targets:     []simnet.IP{ip},
		Sessions:    5_000_000, // far more than can run before the cancel
		Concurrency: 16,
		Timeout:     5 * time.Second,
	}
	done := make(chan Stats, 1)
	go func() { done <- fleet.Run(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	var stats Stats
	select {
	case stats = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fleet did not stop promptly after cancellation")
	}
	if stats.Sessions < 0 || stats.Errors < 0 || stats.BotsRun < 0 {
		t.Errorf("stats underflowed: %+v", stats)
	}
	if int64(stats.Sessions) >= fleet.Sessions {
		t.Errorf("canceled campaign claims the full budget: %d sessions", stats.Sessions)
	}
	for p, n := range stats.ByProfile {
		if n < 0 {
			t.Errorf("profile %v count underflowed: %d", p, n)
		}
	}
}

// TestChaosCanceledBeforeStart: a context canceled before Run begins yields
// an empty, well-formed Stats for both the default and a budgeted schedule.
func TestChaosCanceledBeforeStart(t *testing.T) {
	nw, ip, _ := testTarget(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sessions := range []int64{0, 100} {
		fleet := &Fleet{
			Network:  nw,
			Bots:     DefaultMix(8, 3, 0.30),
			Targets:  []simnet.IP{ip},
			Sessions: sessions,
			Timeout:  time.Second,
		}
		stats := fleet.Run(ctx)
		if stats.Sessions != 0 || stats.Errors != 0 {
			t.Errorf("sessions=%d: pre-canceled run did work: %+v", sessions, stats)
		}
	}
}

// TestInflightPeakGauge: the high-water mark must see at least one session
// in flight and never exceed the concurrency cap.
func TestInflightPeakGauge(t *testing.T) {
	nw, ip, _ := testTarget(t)
	reg := obs.NewRegistry()
	fleet := &Fleet{
		Network:     nw,
		Bots:        DefaultMix(16, 5, 0.30),
		Targets:     []simnet.IP{ip},
		Sessions:    64,
		Concurrency: 4,
		Timeout:     5 * time.Second,
		Metrics:     reg,
	}
	fleet.Run(context.Background())
	snap := reg.Snapshot()
	peak := snap.Gauges["attacker.inflight_peak"]
	if peak < 1 || peak > 4 {
		t.Errorf("attacker.inflight_peak = %d, want within [1,4]", peak)
	}
	if got := snap.Gauges["attacker.inflight"]; got != 0 {
		t.Errorf("attacker.inflight = %d after run, want 0", got)
	}
	if got := snap.Counters["attacker.sessions"]; got != 64 {
		t.Errorf("attacker.sessions = %d, want 64", got)
	}
}

// TestSimulatedClockElapsed: an injected clock drives Stats.Elapsed, making
// campaign timing reproducible.
func TestSimulatedClockElapsed(t *testing.T) {
	nw, ip, _ := testTarget(t)
	tick := int64(0)
	fleet := &Fleet{
		Network: nw,
		Bots:    []Bot{{Source: 2, Profile: ProfileScannerOnly}},
		Targets: []simnet.IP{ip},
		Timeout: time.Second,
		Now: func() time.Time {
			tick++
			return time.Unix(1_450_000_000, 0).Add(time.Duration(tick) * time.Second)
		},
	}
	stats := fleet.Run(context.Background())
	if stats.Elapsed != time.Second {
		t.Errorf("Elapsed = %v, want 1s from the logical clock", stats.Elapsed)
	}
}

// TestDefaultScheduleVisitsEveryPairOnce: with no session budget the fleet
// runs the paper's schedule — every bot visits every target exactly once.
func TestDefaultScheduleVisitsEveryPairOnce(t *testing.T) {
	type visit struct{ bot, target string }
	var mu sync.Mutex
	seen := map[visit]int{}
	provider := simnet.NewStaticProvider()
	var targets []simnet.IP
	for i := 0; i < 4; i++ {
		ip := simnet.IP(uint64(simnet.MustParseIP("100.64.0.1")) + uint64(i))
		target := ip.String()
		provider.Add(ip, 21, simnet.HandlerFunc(func(_ *simnet.Network, nc net.Conn) {
			defer nc.Close()
			host, _, _ := net.SplitHostPort(nc.RemoteAddr().String())
			mu.Lock()
			seen[visit{host, target}]++
			mu.Unlock()
			nc.Write([]byte("220 ready\r\n"))
		}))
		targets = append(targets, ip)
	}
	bots := DefaultMix(5, 7, 0)
	for i := range bots {
		bots[i].Profile = ProfileScannerOnly
	}
	stats := (&Fleet{
		Network:     simnet.NewNetwork(provider),
		Bots:        bots,
		Targets:     targets,
		Concurrency: 3,
		Timeout:     5 * time.Second,
	}).Run(context.Background())
	if stats.Sessions != len(bots)*len(targets) || stats.BotsRun != len(bots) || stats.Errors != 0 {
		t.Fatalf("stats = %+v, want %d sessions from %d bots", stats, len(bots)*len(targets), len(bots))
	}
	for _, b := range bots {
		for _, ip := range targets {
			if n := seen[visit{b.Source.String(), ip.String()}]; n != 1 {
				t.Errorf("bot %s visited %s %d times, want 1", b.Source, ip, n)
			}
		}
	}
}
