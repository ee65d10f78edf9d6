package core

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/worldgen"
)

// fixedClock stamps every record's ScannedAt with one instant, so streamed
// ledgers from different runs compare byte for byte.
func fixedClock() time.Time { return time.Date(2016, 2, 22, 0, 0, 0, 0, time.UTC) }

// testCensus runs a small end-to-end census: scale 32768 scans ~112K
// addresses holding ~420 FTP servers.
func testCensus(t *testing.T, scale int) (*Census, *Result, []*dataset.HostRecord) {
	t.Helper()
	return collectCensus(t, CensusConfig{Seed: 7, Scale: scale})
}

// collectCensus runs the configured census with a Collector on its stream
// and returns the records it collected alongside the result.
func collectCensus(t *testing.T, cfg CensusConfig) (*Census, *Result, []*dataset.HostRecord) {
	t.Helper()
	coll := &dataset.Collector{}
	cfg.StreamTo = coll
	c, err := NewCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return c, res, coll.Records
}

func TestCensusEndToEnd(t *testing.T) {
	c, res, records := testCensus(t, 32768)

	if res.Probed != c.World.ScanSize {
		t.Errorf("probed %d of %d addresses", res.Probed, c.World.ScanSize)
	}
	if len(records) == 0 {
		t.Fatal("no hosts discovered")
	}
	if uint64(len(records)) != res.Responded {
		t.Errorf("records %d != responded %d", len(records), res.Responded)
	}
	if res.Observed != len(records) {
		t.Errorf("observed %d, stream carried %d records", res.Observed, len(records))
	}

	tables := res.ComputeTables()

	// The measured funnel must match the generator's ground truth.
	audit := c.World.Audit(1)
	f := tables.Funnel
	if f.OpenPort21 != audit.Open {
		t.Errorf("open: measured %d, truth %d", f.OpenPort21, audit.Open)
	}
	if f.FTPServers != audit.FTP {
		t.Errorf("ftp: measured %d, truth %d", f.FTPServers, audit.FTP)
	}
	// Anonymous measurement is a lower bound: banner opt-outs stop the
	// login attempt on some anonymous-capable hosts (ethics behaviour),
	// so measured ≤ truth, within a modest margin.
	if f.AnonServers > audit.Anonymous {
		t.Errorf("anon: measured %d exceeds truth %d", f.AnonServers, audit.Anonymous)
	}
	if audit.Anonymous > 0 && float64(f.AnonServers) < 0.5*float64(audit.Anonymous) {
		t.Errorf("anon: measured %d far below truth %d", f.AnonServers, audit.Anonymous)
	}

	// FTPS support must be measured on non-anonymous hosts too.
	if tables.FTPS.Supported == 0 {
		t.Error("no FTPS hosts measured")
	}
	ftpsTruth := audit.FTPS
	if tables.FTPS.Supported > ftpsTruth {
		t.Errorf("ftps: measured %d exceeds truth %d", tables.FTPS.Supported, ftpsTruth)
	}

	// PORT validation: home.pl's default stack fails it, so failures
	// must exist and concentrate there.
	if tables.PortBounce.Tested == 0 {
		t.Error("no PORT probes ran")
	}

	if tables.Classification.TotalFTP != f.FTPServers {
		t.Error("classification total mismatch")
	}

	// Rendering must not panic and must carry every section.
	out := tables.Render()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table VI", "Table VIII",
		"Table IX", "Table X", "Table XI", "Table XII", "Table XIII",
		"Section V", "Section VI", "Section VII.B", "Section IX", "Figure 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestTruthOnlyDiscovery: the scanner's 100K+ probes answer from ground
// truth alone; the world materializes exactly the hosts the enumerator
// dialed — one per discovery-responsive address — not the hosts probed.
// A host is evicted when its connection closes, so the census runs without
// redials: a redial after a hang-up rebuilds its host (TestCensusEvictsHosts
// bounds those builds).
func TestTruthOnlyDiscovery(t *testing.T) {
	reg := obs.NewRegistry()
	_, res, _ := collectCensus(t, CensusConfig{Seed: 7, Scale: 65536, Metrics: reg,
		EnumRetry: enumerator.RetryPolicy{Attempts: 1}})
	if res.Probed <= uint64(res.Observed) {
		t.Fatalf("probed %d, records %d; probe volume should dwarf dials",
			res.Probed, res.Observed)
	}
	if got, want := reg.Counter("world.materialized").Load(), uint64(res.Observed); got != want {
		t.Errorf("materialized %d hosts, want %d (hosts dialed by the enumerator)",
			got, want)
	}
}

func TestCensusDeterministicDiscovery(t *testing.T) {
	_, res1, _ := testCensus(t, 65536)
	_, res2, _ := testCensus(t, 65536)
	if res1.Observed != res2.Observed {
		t.Errorf("same seed found %d vs %d hosts", res1.Observed, res2.Observed)
	}
	f1 := res1.ComputeTables().Funnel
	f2 := res2.ComputeTables().Funnel
	if f1 != f2 {
		t.Errorf("funnels diverge: %+v vs %+v", f1, f2)
	}
}

func TestCensusWithLossAndRetries(t *testing.T) {
	c, err := NewCensus(CensusConfig{Seed: 7, Scale: 65536, LossRate: 0.2, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	audit := c.World.Audit(1)
	// Retries should recover nearly all hosts despite 20% probe loss.
	if res.Observed < audit.Open*9/10 {
		t.Errorf("loss recovery: found %d of %d", res.Observed, audit.Open)
	}
}

// TestHTTPJoin: the census joins each FTP host to the world's web-scan
// truth as it observes the host, around 65% of FTP hosts also serve HTTP,
// and §VI's overlap count is exactly what the join reports.
func TestHTTPJoin(t *testing.T) {
	c, res, records := testCensus(t, 65536)
	join := truthHTTP(c.World)
	ftpHosts, withHTTP := 0, 0
	for _, rec := range records {
		if !rec.FTP {
			continue
		}
		ftpHosts++
		if info, ok := join(&analysis.Record{Host: rec}); ok && info.HTTP {
			withHTTP++
		}
	}
	if ftpHosts == 0 {
		t.Fatal("no FTP hosts to join")
	}
	rate := float64(withHTTP) / float64(ftpHosts)
	if rate < 0.4 || rate > 0.9 {
		t.Errorf("HTTP overlap rate = %.2f, want ≈0.65", rate)
	}
	if got := res.ComputeTables().Malicious.HTTPOverlap; got != withHTTP {
		t.Errorf("aggregated HTTP overlap %d, join says %d", got, withHTTP)
	}
}

// TestCensusCancellation: caller cancellation is graceful truncation, not
// failure — the partial result comes back flagged instead of being thrown
// away (the pre-fix behaviour lost the whole run).
func TestCensusCancellation(t *testing.T) {
	c, err := NewCensus(CensusConfig{Seed: 7, Scale: 2048, ScanWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("cancelled census returned error: %v", err)
	}
	if !res.Truncated || res.TruncatedBy != TruncateCanceled {
		t.Errorf("Truncated=%v TruncatedBy=%q, want true/%q",
			res.Truncated, res.TruncatedBy, TruncateCanceled)
	}
	if res.Robustness.Failures[TruncateCanceled] != 1 {
		t.Errorf("robustness missing %q class: %v", TruncateCanceled, res.Robustness.Failures)
	}
}

// TestNewCensusRefusesOversizedFleet: the enumerator binds one source
// address per worker from ScannerBase up, so a fleet that would reach
// CollectorIP is refused before any world is built; the largest fleet that
// fits is accepted. Only the census is constructed: no fleet starts.
func TestNewCensusRefusesOversizedFleet(t *testing.T) {
	if _, err := NewCensus(CensusConfig{Scale: 131072, EnumWorkers: 65281}); err == nil {
		t.Error("65281 enum workers accepted; the last would bind the collector's address")
	}
	if _, err := NewCensus(CensusConfig{Scale: 131072, EnumWorkers: 65280}); err != nil {
		t.Errorf("65280 enum workers refused: %v", err)
	}
}

// TestCensusDeadlineTruncation: an expired deadline mid-run must yield the
// partial dataset — every record drained before the cut, flagged with the
// deadline truncation class — and the tables must still compute.
func TestCensusDeadlineTruncation(t *testing.T) {
	probe := &cancelAfterSink{after: 2}
	c, err := NewCensus(CensusConfig{
		Seed: 7, Scale: 32768,
		StreamTo: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sink stalls the third record until after the deadline, so the
	// deadline deterministically fires mid-run no matter how fast the
	// machine: the run cannot complete before the stall lifts at 100ms,
	// and the deadline expires at 50ms.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(50*time.Millisecond))
	defer cancel()
	probe.block = make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(probe.block) })

	res, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("deadline-truncated census returned error: %v", err)
	}
	if !res.Truncated || res.TruncatedBy != TruncateDeadline {
		t.Fatalf("Truncated=%v TruncatedBy=%q, want true/%q",
			res.Truncated, res.TruncatedBy, TruncateDeadline)
	}
	if res.Observed != probe.seen {
		t.Errorf("Observed=%d but StreamTo saw %d records", res.Observed, probe.seen)
	}
	if probe.closes != 1 {
		t.Errorf("StreamTo closed %d times, want exactly once", probe.closes)
	}
	if res.Observed != res.Robustness.Records {
		t.Errorf("Observed=%d disagrees with Robustness.Records=%d",
			res.Observed, res.Robustness.Records)
	}
	if res.Robustness.Failures[TruncateDeadline] != 1 {
		t.Errorf("robustness missing %q class: %v", TruncateDeadline, res.Robustness.Failures)
	}
	// The partial ledger still renders.
	if out := res.ComputeTables().Render(); !strings.Contains(out, "Table I") {
		t.Error("partial tables failed to render")
	}
}

// TestTruncatedRunStreamsOnlyWholeRecords: a run cut without a checkpoint
// policy streams no record the cut shortened. The first session to ask for
// a directory listing stalls there, mid-traversal, and the run is cancelled
// while it stalls. Every record the run streams must equal, byte for byte,
// the same host's record from an uninterrupted run: a host the cut
// interrupted is left out, not recorded with part of its tree and no mark
// of the cut.
func TestTruncatedRunStreamsOnlyWholeRecords(t *testing.T) {
	cfg := CensusConfig{Seed: 7, Scale: 32768, Now: fixedClock}
	var ref bytes.Buffer
	refCfg := cfg
	refCfg.StreamTo = dataset.NewWriterSink(&ref)
	refCensus, err := NewCensus(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refCensus.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantLines := ledgerByIP(t, ref.Bytes())

	var ledger bytes.Buffer
	cutCfg := cfg
	cutCfg.StreamTo = dataset.NewWriterSink(&ledger)
	c, err := NewCensus(cutCfg)
	if err != nil {
		t.Fatal(err)
	}
	lg := &listingGate{World: c.World, gate: make(chan struct{}), stalled: make(chan struct{})}
	c.Network.SetProvider(lg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-lg.stalled:
			cancel()
		case <-done:
		}
		close(lg.gate)
	}()
	res, err := c.Run(ctx)
	if err != nil || !res.Truncated {
		t.Fatalf("cut run: err=%v truncated=%v", err, res != nil && res.Truncated)
	}
	stalled := simnet.IP(lg.ip.Load()).String()
	for ip, line := range ledgerByIP(t, ledger.Bytes()) {
		if line != wantLines[ip] {
			t.Errorf("host %s: the cut run streamed\n%s\nthe uninterrupted run\n%s", ip, line, wantLines[ip])
		}
	}
	if _, ok := wantLines[stalled]; !ok {
		t.Errorf("the stalled host %s has no record in the uninterrupted run", stalled)
	}
}

// listingGate serves the world's hosts, except that the first session to
// send a directory listing request stalls before its server reads it, until
// gate closes: a host cut mid-traversal.
type listingGate struct {
	*worldgen.World
	gate    chan struct{}
	stalled chan struct{} // closed when the stall begins
	begun   atomic.Bool
	ip      atomic.Uint32 // the stalled host's address
}

func (g *listingGate) Lookup(ip simnet.IP) simnet.Host {
	h := g.World.Lookup(ip)
	if h == nil {
		return nil
	}
	return listingHost{Host: h, g: g, ip: ip}
}

type listingHost struct {
	simnet.Host
	g  *listingGate
	ip simnet.IP
}

func (h listingHost) Handler(port uint16) simnet.Handler {
	inner := h.Host.Handler(port)
	if inner == nil {
		return nil
	}
	return simnet.HandlerFunc(func(nw *simnet.Network, conn net.Conn) {
		inner.ServeConn(nw, &listingConn{Conn: conn, h: h})
	})
}

// listingConn is a server's end of a session; its first listing request
// may be the one that stalls.
type listingConn struct {
	net.Conn
	h listingHost
}

func (c *listingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if verb := string(p[:min(n, 4)]); verb == "LIST" || verb == "MLSD" {
		if g := c.h.g; g.begun.CompareAndSwap(false, true) {
			g.ip.Store(uint32(c.h.ip))
			close(g.stalled)
			<-g.gate
		}
	}
	return n, err
}

// ledgerByIP maps each record of a JSONL ledger to its line.
func ledgerByIP(t *testing.T, raw []byte) map[string]string {
	t.Helper()
	records, err := dataset.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != len(records) {
		t.Fatalf("%d ledger lines hold %d records", len(lines), len(records))
	}
	byIP := make(map[string]string, len(records))
	for i, rec := range records {
		byIP[rec.IP] = lines[i]
	}
	return byIP
}

// cancelAfterSink counts the records it is handed and its Close calls,
// optionally stalling after a few so a surrounding deadline reliably fires
// mid-drain.
type cancelAfterSink struct {
	after  int
	seen   int
	closes int
	block  chan struct{}
}

func (s *cancelAfterSink) Observe(*dataset.HostRecord) error {
	if s.block != nil && s.seen >= s.after {
		<-s.block
	}
	s.seen++
	return nil
}

func (s *cancelAfterSink) Close() error {
	s.closes++
	return nil
}

// TestDrainConsistencyOnSinkFailure: a sink failing mid-stream must not
// desynchronize the ledgers — Robustness counts exactly the records the
// sink chain accepted, which is exactly what the aggregator observed, and
// the pipeline still drains to completion instead of deadlocking.
func TestDrainConsistencyOnSinkFailure(t *testing.T) {
	c, err := NewCensus(CensusConfig{
		Seed: 7, Scale: 32768,
		StreamTo: &failAfterSink{after: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("Run succeeded despite failing sink")
	}
	if res == nil {
		t.Fatal("Run returned no partial result alongside the sink error")
	}
	if res.Observed != 3 {
		t.Errorf("Observed=%d, want 3 (records accepted before the sink broke)", res.Observed)
	}
	if res.Robustness.Records != res.Observed {
		t.Errorf("Robustness.Records=%d disagrees with Observed=%d",
			res.Robustness.Records, res.Observed)
	}
}

func TestHoneypotStudyViaCore(t *testing.T) {
	r, err := HoneypotStudy(context.Background(), HoneypotStudyConfig{
		Seed: 3, Honeypots: 4, Attackers: 60, Concentrated: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.UniqueScanners != 60 {
		t.Errorf("scanners = %d", r.Summary.UniqueScanners)
	}
	if r.Summary.SpokeFTP == 0 {
		t.Error("no FTP speakers")
	}
	if r.Sessions == 0 {
		t.Error("streamed report recorded no sessions")
	}
	if len(r.Timelines) == 0 {
		t.Error("streamed report has no lure timelines")
	}
}

func TestWriteEvidenceFlowsThrough(t *testing.T) {
	_, res, records := testCensus(t, 8192)
	writable := 0
	for _, rec := range records {
		if len(rec.WriteEvidence) > 0 {
			writable++
		}
	}
	tables := res.ComputeTables()
	if tables.Malicious.WritableServers != writable {
		t.Errorf("writable: analysis %d vs records %d",
			tables.Malicious.WritableServers, writable)
	}
}

func TestDatasetRoundTripFromCensus(t *testing.T) {
	_, _, records := testCensus(t, 65536)
	var sb strings.Builder
	w := dataset.NewWriter(&sb)
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	back, err := dataset.ReadAll(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(records) {
		t.Errorf("round trip: %d vs %d", len(back), len(records))
	}
}
