package honeypot

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ftpcloud/internal/attacker"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/simnet"
)

// deployFleetTest stands up a differentiated fleet of count honeypots.
func deployFleetTest(t *testing.T, count int, cfg FleetConfig) (*simnet.Network, *Deployment) {
	t.Helper()
	provider := simnet.NewStaticProvider()
	cfg.Base = simnet.MustParseIP("100.64.0.1")
	cfg.Count = count
	dep, err := DeployFleet(provider, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return simnet.NewNetwork(provider), dep
}

func runFleet(t *testing.T, nw *simnet.Network, dep *Deployment, bots int, fleetCfg func(*attacker.Fleet)) attacker.Stats {
	t.Helper()
	fleet := &attacker.Fleet{
		Network:      nw,
		Bots:         attacker.DefaultMix(bots, 77, 0.30),
		Targets:      dep.IPs,
		BounceTarget: ftp.HostPort{IP: [4]byte{203, 0, 113, 66}, Port: 9999},
		Timeout:      5 * time.Second,
	}
	if fleetCfg != nil {
		fleetCfg(fleet)
	}
	stats := fleet.Run(context.Background())
	quiesce(t, dep.Acc, uint64(stats.Sessions))
	return stats
}

// quiesce waits until the accumulator has folded a disconnect for each of
// dialed sessions, so a comparison sees every teardown event.
func quiesce(t *testing.T, acc *Accumulator, dialed uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !acc.Quiesce(ctx, dialed) {
		t.Fatal("accumulator never quiesced")
	}
}

// TestStreamedMatchesEventStreamRefold is the fold equivalence check: the
// live accumulator and a fresh accumulator fed the run's JSONL event stream,
// decoded line by line, must produce identical reports — the stream carries
// everything the tables need, and the fold does not depend on arrival order.
func TestStreamedMatchesEventStreamRefold(t *testing.T) {
	var buf bytes.Buffer
	stream := NewEventStream(dataset.NewLines(&buf))
	clock := SimClock(time.Unix(1_450_000_000, 0), time.Millisecond)
	nw, dep := deployFleetTest(t, 16, FleetConfig{Seed: 9, Events: stream, Now: clock})
	runFleet(t, nw, dep, 150, func(f *attacker.Fleet) { f.Now = clock })
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	live := dep.Acc

	kinds := map[string]ftpserver.EventKind{}
	for k := ftpserver.EventConnect; k <= ftpserver.EventDelete; k++ {
		kinds[k.String()] = k
	}
	refold := NewAccumulator()
	for ip, lure := range dep.Lures {
		refold.Register(ip.String(), lure, live.honeypots[ip.String()].deployed)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var se StreamEvent
		if err := json.Unmarshal(line, &se); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		kind, ok := kinds[se.Kind]
		if !ok {
			t.Fatalf("line %d: unknown kind %q", i, se.Kind)
		}
		refold.observe(se.Honeypot, ftpserver.Event{
			Kind: kind, RemoteIP: se.RemoteIP, Command: se.Command, Arg: se.Arg, User: se.User,
			Pass: se.Pass, Path: se.Path, Detail: se.Detail, Bytes: se.Bytes, Time: se.Time,
		})
	}

	got, want := refold.Report(), live.Report()
	if g, w := Render(got.Summary), Render(want.Summary); g != w {
		t.Errorf("re-folded summary diverges from the live fold:\nrefold:\n%s\nlive:\n%s", g, w)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-folded report diverges:\nrefold: %+v\nlive:   %+v", got, want)
	}
	if want.Events == 0 {
		t.Error("the run folded no events")
	}
}

// TestCampaignLeavesNoTeardownBacklog: on one P, a campaign worker lets
// each honeypot session end before it dials the next. Without that, the
// worker's dial/reply ping-pong keeps the P and closed sessions queue
// behind it by the hundred, each holding its server state.
func TestCampaignLeavesNoTeardownBacklog(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nw, dep := deployFleetTest(t, 10, FleetConfig{Seed: 5})
	fleet := &attacker.Fleet{
		Network:      nw,
		Bots:         attacker.DefaultMix(457, 77, 0.30),
		Targets:      dep.IPs,
		BounceTarget: ftp.HostPort{IP: [4]byte{203, 0, 113, 66}, Port: 9999},
		Timeout:      5 * time.Second,
		Concurrency:  1,
		Sessions:     3000,
	}
	stats := fleet.Run(context.Background())
	if backlog := uint64(stats.Sessions) - dep.Acc.Closed(); backlog > 8 {
		t.Errorf("%d of %d sessions still open when the campaign returned", backlog, stats.Sessions)
	}
	quiesce(t, dep.Acc, uint64(stats.Sessions))
}

// TestTopSourcePrefixDeterministic: when two /8s tie on scanner count, the
// lexicographically smallest prefix must win every time — the legacy
// map-iteration selection resolved ties randomly across runs.
func TestTopSourcePrefixDeterministic(t *testing.T) {
	for run := 0; run < 50; run++ {
		acc := NewAccumulator()
		for _, ip := range []string{"9.1.1.1", "9.2.2.2", "8.1.1.1", "8.2.2.2"} {
			acc.observe("hp", ftpserver.Event{Kind: ftpserver.EventConnect, RemoteIP: ip})
		}
		s := acc.Summary()
		if s.TopSourcePrefix != "8.0.0.0/8" {
			t.Fatalf("run %d: tie resolved to %s, want 8.0.0.0/8", run, s.TopSourcePrefix)
		}
		if s.TopSourcePrefixShare != 50 {
			t.Fatalf("run %d: share = %.1f, want 50", run, s.TopSourcePrefixShare)
		}
	}
}

// TestDeletesCountSuccessfulOnly: a failed DELE must not count — the legacy
// summarizer tallied every DELE command while Uploads counted only
// successful transfers, so the two columns weren't comparable.
func TestDeletesCountSuccessfulOnly(t *testing.T) {
	nw, dep := deployFleetTest(t, 1, FleetConfig{Seed: 1, Mix: LureMix{Webroot: 1}})
	ip := dep.IPs[0]

	nc, err := nw.DialFrom(simnet.MustParseIP("9.9.9.9"), ip, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := ftp.NewConn(nc)
	c.Timeout = 5 * time.Second
	if r, _ := c.ReadReply(); r.Code != ftp.CodeReady {
		t.Fatalf("banner: %+v", r)
	}
	c.Cmd("USER", "anonymous")
	if r, _ := c.Cmd("PASS", "x@x"); r.Code != ftp.CodeLoggedIn {
		t.Fatalf("login: %+v", r)
	}
	// Failed delete: the file does not exist.
	if r, _ := c.Cmd("DELE", "/no-such-file.txt"); !r.Negative() {
		t.Fatalf("DELE of missing file succeeded: %+v", r)
	}
	s := dep.Acc.Summary()
	if s.Deletes != 0 {
		t.Fatalf("failed DELE counted: Deletes = %d, want 0", s.Deletes)
	}
	nc.Close() // its disconnect is one of those quiesce waits for below

	// Successful upload + delete via a write-prober bot.
	fleet := &attacker.Fleet{
		Network: nw,
		Bots:    []attacker.Bot{{Source: simnet.MustParseIP("9.9.9.10"), Profile: attacker.ProfileWriteProber, Seed: 3}},
		Targets: dep.IPs,
		Timeout: 5 * time.Second,
	}
	stats := fleet.Run(context.Background())
	// One disconnect for the hand-made session, one per fleet session.
	quiesce(t, dep.Acc, uint64(stats.Sessions)+1)
	s = dep.Acc.Summary()
	if s.Uploads != 1 || s.Deletes != 1 {
		t.Errorf("write probe: uploads/deletes = %d/%d, want 1/1", s.Uploads, s.Deletes)
	}
}

// TestLureDeterminism: the same (seed, index) must always yield the same
// honeypot, and a default-mix fleet must actually be differentiated.
func TestLureDeterminism(t *testing.T) {
	_, a := deployFleetTest(t, 32, FleetConfig{Seed: 11})
	_, b := deployFleetTest(t, 32, FleetConfig{Seed: 11})
	if !reflect.DeepEqual(a.Lures, b.Lures) {
		t.Error("same seed drew different lure assignments")
	}
	distinct := map[LureStrategy]bool{}
	for _, lure := range a.Lures {
		distinct[lure] = true
	}
	if len(distinct) < 3 {
		t.Errorf("32-honeypot default-mix fleet drew only %d strategies: %v", len(distinct), distinct)
	}
}

// TestVaultLureRejectsWrites: the read-only vault posture must refuse
// anonymous uploads while still recording the attempt as traffic.
func TestVaultLureRejectsWrites(t *testing.T) {
	nw, dep := deployFleetTest(t, 1, FleetConfig{Seed: 2, Mix: LureMix{Vault: 1}})
	stats := runFleet(t, nw, dep, 0, func(f *attacker.Fleet) {
		f.Bots = []attacker.Bot{{Source: simnet.MustParseIP("9.4.4.4"), Profile: attacker.ProfileWriteProber, Seed: 8}}
	})
	if stats.Errors == 0 {
		t.Error("write probe against read-only vault reported no error")
	}
	s := dep.Acc.Summary()
	if s.Uploads != 0 {
		t.Errorf("vault accepted %d uploads", s.Uploads)
	}
	if s.UniqueScanners == 0 {
		t.Error("vault recorded no traffic at all")
	}
}

// TestSimClockReproducibleTimelines: two runs with the same seed and a fresh
// SimClock must draw identical fleets and campaign assignments, so the
// structural timeline (lures, probe coverage, session counts) reproduces
// exactly and every probed lure carries a sane TTF distribution. Exact tick
// values are not compared: session teardown folds concurrently with the
// next session's connect, so tick assignment may interleave.
func TestSimClockReproducibleTimelines(t *testing.T) {
	type shape struct {
		Lure      LureStrategy
		Honeypots int
		Probed    int
		Sessions  int
	}
	run := func() []LureTimeline {
		clock := SimClock(time.Unix(1_450_000_000, 0), 250*time.Millisecond)
		nw, dep := deployFleetTest(t, 8, FleetConfig{Seed: 4, Now: clock})
		runFleet(t, nw, dep, 20, func(f *attacker.Fleet) {
			f.Sessions = 64
			f.Concurrency = 1
			f.Now = clock
		})
		return dep.Acc.Timelines()
	}
	shapes := func(rows []LureTimeline) []shape {
		out := make([]shape, len(rows))
		for i, tl := range rows {
			out[i] = shape{tl.Lure, tl.Honeypots, tl.Probed, tl.Sessions}
		}
		return out
	}
	first, second := run(), run()
	if !reflect.DeepEqual(shapes(first), shapes(second)) {
		t.Errorf("timeline shapes diverge across identical runs:\nfirst:  %+v\nsecond: %+v", shapes(first), shapes(second))
	}
	probed := 0
	for _, tl := range first {
		probed += tl.Probed
		if tl.Probed > 0 {
			if tl.TTFMin <= 0 {
				t.Errorf("lure %s: TTF min %v, want > 0 under SimClock", tl.Lure, tl.TTFMin)
			}
			if tl.TTFMax < tl.TTFMin || tl.TTFMedian < tl.TTFMin || tl.TTFP90 > tl.TTFMax {
				t.Errorf("lure %s: TTF quantiles out of order: %+v", tl.Lure, tl)
			}
		}
	}
	if probed == 0 {
		t.Error("no honeypot was ever probed")
	}
}

// TestEventStreamJSONL: the -events-out firehose must tag every event with
// the honeypot identity and lure, one JSON object per line.
func TestEventStreamJSONL(t *testing.T) {
	var buf bytes.Buffer
	stream := NewEventStream(dataset.NewLines(&buf))
	nw, dep := deployFleetTest(t, 2, FleetConfig{Seed: 6, Events: stream})
	runFleet(t, nw, dep, 10, nil)
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if uint64(len(lines)) != dep.Acc.Events() {
		t.Errorf("stream wrote %d lines, accumulator folded %d events", len(lines), dep.Acc.Events())
	}
	for i, line := range lines {
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev.Honeypot == "" || ev.Lure == "" || ev.Kind == "" {
			t.Fatalf("line %d missing identity: %+v", i, ev)
		}
	}
}

// TestQuiesceBarriersEventStream: Quiesce(dialed) is the close barrier for
// -events-out — once it returns, every folded event is already on the
// stream (observer order puts the stream before the accumulator), so
// closing immediately loses nothing. This is exact, not a settle loop: one
// disconnect per dialed session.
func TestQuiesceBarriersEventStream(t *testing.T) {
	var buf bytes.Buffer
	stream := NewEventStream(dataset.NewLines(&buf))
	nw, dep := deployFleetTest(t, 4, FleetConfig{Seed: 11, Events: stream})
	stats := runFleet(t, nw, dep, 30, func(f *attacker.Fleet) {
		f.Sessions = 400
		f.Concurrency = 16
	})
	if got := dep.Acc.Closed(); got != dep.Acc.Sessions() {
		t.Fatalf("quiesced with %d disconnects for %d connects", got, dep.Acc.Sessions())
	}
	if uint64(stats.Sessions) != dep.Acc.Sessions() {
		t.Errorf("fleet dialed %d sessions, accumulator saw %d connects", stats.Sessions, dep.Acc.Sessions())
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if uint64(len(lines)) != dep.Acc.Events() {
		t.Errorf("stream wrote %d lines, accumulator folded %d events", len(lines), dep.Acc.Events())
	}

	// An expired context reports failure instead of spinning.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if NewAccumulator().Quiesce(expired, 1) {
		t.Error("Quiesce returned true on an expired context with work outstanding")
	}
}

// TestParseLureMix covers the flag syntax.
func TestParseLureMix(t *testing.T) {
	if m, err := ParseLureMix(""); err != nil || m != DefaultLureMix() {
		t.Errorf("empty mix: %+v, %v", m, err)
	}
	m, err := ParseLureMix("webroot=3,vault=1")
	if err != nil || m.Webroot != 3 || m.Vault != 1 || m.Backup != 0 {
		t.Errorf("parsed mix: %+v, %v", m, err)
	}
	for _, bad := range []string{"webroot", "webroot=x", "nope=1", "webroot=-1", "webroot=0"} {
		if _, err := ParseLureMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

// TestAccumulatorConcurrentFold: many goroutines folding into one
// accumulator while reports are finalized — the race detector's target.
func TestAccumulatorConcurrentFold(t *testing.T) {
	acc := NewAccumulator()
	acc.Register("hp", LureWebroot, time.Unix(0, 0))
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				acc.observe("hp", ftpserver.Event{
					Kind:     ftpserver.EventConnect,
					RemoteIP: fmt.Sprintf("9.%d.%d.1", g, i%10),
					Time:     time.Unix(int64(i), 0),
				})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		acc.Report()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := acc.Sessions(); got != 1600 {
		t.Errorf("sessions = %d, want 1600", got)
	}
}
