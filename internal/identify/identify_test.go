package identify

import (
	"context"
	"net"
	"testing"
	"time"

	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/worldgen"
)

// scriptedNet is a test HostProvider mapping addresses to port-21 handlers —
// each handler scripts one first-contact behaviour (banner, drip, stall).
type scriptedNet map[simnet.IP]simnet.HandlerFunc

func (s scriptedNet) Lookup(ip simnet.IP) simnet.Host {
	h, ok := s[ip]
	if !ok {
		return nil
	}
	return scriptedHost{h}
}

type scriptedHost struct{ h simnet.HandlerFunc }

func (s scriptedHost) Listening(port uint16) bool { return port == 21 }

func (s scriptedHost) Handler(port uint16) simnet.Handler {
	if port != 21 {
		return nil
	}
	return s.h
}

// identifyOne runs Identify against a single scripted handler.
func identifyOne(t *testing.T, wait time.Duration, h simnet.HandlerFunc) Result {
	t.Helper()
	ip := simnet.MustParseIP("198.51.100.7")
	nw := simnet.NewNetwork(scriptedNet{ip: h})
	cfg := Config{
		Dialer:     simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")},
		BannerWait: wait,
	}
	return Identify(context.Background(), cfg, ip.String())
}

// readAll drains a connection until close so scripted servers can linger.
func readAll(conn net.Conn) {
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// TestIdentifyServerFirstBanner: protocols that speak first are identified
// from the banner alone — no trigger bytes ever leave the scanner.
func TestIdentifyServerFirstBanner(t *testing.T) {
	for _, tc := range []struct {
		name   string
		banner string
		want   fingerprint.Protocol
	}{
		{"ftp", "220 ProFTPD 1.3.5 Server ready\r\n", fingerprint.ProtoFTP},
		{"ssh", "SSH-2.0-OpenSSH_7.4\r\n", fingerprint.ProtoSSH},
	} {
		res := identifyOne(t, time.Second, func(_ *simnet.Network, conn net.Conn) {
			defer conn.Close()
			conn.Write([]byte(tc.banner))
			readAll(conn)
		})
		if res.Protocol != tc.want || res.Triggered {
			t.Errorf("%s: got protocol %q (triggered=%v), want %q untriggered",
				tc.name, res.Protocol, res.Triggered, tc.want)
		}
		if res.Banner != tc.banner {
			t.Errorf("%s: banner %q, want %q", tc.name, res.Banner, tc.banner)
		}
	}
}

// TestIdentifyClientFirstTrigger: quiet endpoints get exactly one minimal
// trigger, and their response identifies them.
func TestIdentifyClientFirstTrigger(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply []byte
		want  fingerprint.Protocol
	}{
		{"http", []byte("HTTP/1.1 400 Bad Request\r\n\r\n"), fingerprint.ProtoHTTP},
		{"tls", []byte{0x15, 0x03, 0x03, 0x00, 0x02, 0x02, 0x28}, fingerprint.ProtoTLS},
	} {
		res := identifyOne(t, 150*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
			defer conn.Close()
			buf := make([]byte, 64)
			if n, _ := conn.Read(buf); n == 0 {
				return
			}
			conn.Write(tc.reply)
			readAll(conn)
		})
		if res.Protocol != tc.want || !res.Triggered {
			t.Errorf("%s: got protocol %q (triggered=%v), want %q after trigger",
				tc.name, res.Protocol, res.Triggered, tc.want)
		}
	}
}

// TestIdentifySilentAccept: an endpoint that never speaks through both
// windows is shed as ProtoNone — dead air costs one connection, two waits.
func TestIdentifySilentAccept(t *testing.T) {
	res := identifyOne(t, 60*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		readAll(conn)
	})
	if res.Protocol != fingerprint.ProtoNone || !res.Triggered || res.Err != nil {
		t.Errorf("silent accept: got %+v, want triggered ProtoNone", res)
	}
}

// TestIdentifyDialRefused: a connection failure sheds as ProtoNone with the
// error recorded — no retries, no second dial.
func TestIdentifyDialRefused(t *testing.T) {
	nw := simnet.NewNetwork(nil)
	cfg := Config{Dialer: simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")}}
	res := Identify(context.Background(), cfg, "198.51.100.7")
	if res.Protocol != fingerprint.ProtoNone || res.Err == nil {
		t.Errorf("refused dial: got %+v, want ProtoNone with error", res)
	}
}

// TestIdentifyChaosDrippedBanner: a hostile server dripping its FTP banner a
// byte or two at a time must still identify as FTP — the settle loop keeps
// reading while the evidence is too thin to call.
func TestIdentifyChaosDrippedBanner(t *testing.T) {
	res := identifyOne(t, 500*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		// The gaps are the hostile behaviour under test, not a wait:
		// each is well inside the 500 ms window, and the test checks
		// only the verdict, never the timing.
		for _, chunk := range []string{"2", "2", "0 slow drip ftp\r\n"} {
			conn.Write([]byte(chunk))
			time.Sleep(20 * time.Millisecond)
		}
		readAll(conn)
	})
	if res.Protocol != fingerprint.ProtoFTP {
		t.Errorf("dripped banner: got %q (banner %q), want ftp", res.Protocol, res.Banner)
	}
}

// TestIdentifyChaosStalledBanner: a server that emits one byte and stalls is
// shed as garbage when the window closes — identification never hangs on a
// tarpit.
func TestIdentifyChaosStalledBanner(t *testing.T) {
	start := time.Now()
	res := identifyOne(t, 80*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		conn.Write([]byte("2"))
		readAll(conn) // stall until the scanner hangs up
	})
	if res.Protocol != fingerprint.ProtoGarbage {
		t.Errorf("stalled banner: got %q, want garbage", res.Protocol)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("stalled banner held identification for %v", elapsed)
	}
}

// TestIdentifyChaosMidBannerUnexpectedEOF: a reply-code fragment cut off by
// a close must never pass as FTP.
func TestIdentifyChaosMidBannerUnexpectedEOF(t *testing.T) {
	res := identifyOne(t, 200*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
		conn.Write([]byte("22"))
		conn.Close()
	})
	if res.Protocol == fingerprint.ProtoFTP {
		t.Errorf("truncated reply code passed as FTP (banner %q)", res.Banner)
	}
}

// TestIdentifyChaosGarbageBanner: a decisive garbage banner is shed without
// waiting out the window — only thin evidence buys more reading time.
func TestIdentifyChaosGarbageBanner(t *testing.T) {
	garbage := make([]byte, 64)
	for i := range garbage {
		garbage[i] = byte(0x80 + i%0x40)
	}
	start := time.Now()
	res := identifyOne(t, 2*time.Second, func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		conn.Write(garbage)
		readAll(conn)
	})
	if res.Protocol != fingerprint.ProtoGarbage {
		t.Errorf("garbage banner: got %q", res.Protocol)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("decisive garbage held identification for %v", elapsed)
	}
}

// stageOver runs a Stage over the first open endpoints of a world and
// returns the routed FTP addresses, shed results, and the metrics registry.
func stageOver(t *testing.T, w *worldgen.World, feed []simnet.IP) (map[simnet.IP]bool, []Result, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	stage := &Stage{
		Cfg:        Config{BannerWait: 120 * time.Millisecond},
		Network:    simnet.NewNetwork(w),
		SourceBase: simnet.MustParseIP("250.0.1.1"),
		Workers:    16,
		Metrics:    reg,
	}
	in := make(chan simnet.IP)
	ftp := make(chan simnet.IP, len(feed))
	shed := make(chan Result, len(feed))
	go func() {
		for _, ip := range feed {
			in <- ip
		}
		close(in)
	}()
	stage.Run(context.Background(), in, ftp, shed)
	passed := map[simnet.IP]bool{}
	for ip := range ftp {
		passed[ip] = true
	}
	var shedRes []Result
	for r := range shed {
		shedRes = append(shedRes, r)
	}
	return passed, shedRes, reg
}

// openEndpoints collects the first n discovered endpoints (FTP and service
// hosts alike) of a world, as the probe stage would hand them over.
func openEndpoints(t *testing.T, w *worldgen.World, n int) (feed []simnet.IP, ftpTruth map[simnet.IP]bool) {
	t.Helper()
	ftpTruth = map[simnet.IP]bool{}
	base := uint64(w.ScanBase)
	for off := uint64(0); off < w.ScanSize && len(feed) < n; off++ {
		ip := simnet.IP(base + off)
		truth, ok := w.Truth(ip)
		if !ok || (!truth.FTP && !truth.NonFTPOpen) {
			continue
		}
		feed = append(feed, ip)
		if truth.FTP {
			ftpTruth[ip] = true
		}
	}
	if len(feed) < n {
		t.Fatalf("world yielded only %d open endpoints, want %d", len(feed), n)
	}
	return feed, ftpTruth
}

// TestIdentifyStageMixedWorld: over a benign mixed world, the stage routes
// every true FTP endpoint to the enumerator and sheds every service host
// after exactly one identification dial — the one-round-trip economics the
// funnel is built on.
func TestIdentifyStageMixedWorld(t *testing.T) {
	p := worldgen.DefaultParams(11, 262144)
	p.FTPRateOfOpen = 0.35
	p.ServiceMix = worldgen.DefaultServiceMix()
	w, err := worldgen.New(p)
	if err != nil {
		t.Fatal(err)
	}
	feed, ftpTruth := openEndpoints(t, w, 96)
	passed, shed, reg := stageOver(t, w, feed)

	for ip := range ftpTruth {
		if !passed[ip] {
			t.Errorf("%s: true FTP endpoint did not reach the enumerator", ip)
		}
	}
	for _, r := range shed {
		if ftpTruth[simnet.MustParseIP(r.IP)] {
			t.Errorf("%s: true FTP endpoint shed as %q", r.IP, r.Protocol)
		}
		if r.Protocol == fingerprint.ProtoFTP {
			t.Errorf("%s: shed result carries protocol ftp", r.IP)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["identify.dials"]; got != uint64(len(feed)) {
		t.Errorf("identify.dials = %d, want exactly one per endpoint (%d)", got, len(feed))
	}
	if got := snap.Counters["identify.passed"]; got != uint64(len(ftpTruth)) {
		t.Errorf("identify.passed = %d, want %d", got, len(ftpTruth))
	}
	if got := snap.Counters["identify.shed"]; got != uint64(len(feed)-len(ftpTruth)) {
		t.Errorf("identify.shed = %d, want %d", got, len(feed)-len(ftpTruth))
	}
	if snap.Counters["identify.errors"] != 0 {
		t.Errorf("benign world produced %d identify errors", snap.Counters["identify.errors"])
	}
}

// TestIdentifyStageHostileMixedWorld: with transport faults on both FTP and
// service hosts, every endpoint is still accounted for — passed plus shed
// equals dials, and nothing is dialed twice. Faulted FTP hosts may legally
// shed (a pre-banner reset looks dead from one connection), but the stage
// must neither hang nor double-count.
func TestIdentifyStageHostileMixedWorld(t *testing.T) {
	p := worldgen.DefaultParams(11, 262144)
	p.FTPRateOfOpen = 0.35
	p.ServiceMix = worldgen.DefaultServiceMix()
	p.HostileRate = 0.5
	w, err := worldgen.New(p)
	if err != nil {
		t.Fatal(err)
	}
	feed, _ := openEndpoints(t, w, 64)
	passed, shed, reg := stageOver(t, w, feed)

	snap := reg.Snapshot()
	if got := snap.Counters["identify.dials"]; got != uint64(len(feed)) {
		t.Errorf("identify.dials = %d, want %d", got, len(feed))
	}
	if got := len(passed) + len(shed); got != len(feed) {
		t.Errorf("passed %d + shed %d endpoints, fed %d", len(passed), len(shed), len(feed))
	}
	if snap.Counters["identify.passed"]+snap.Counters["identify.shed"] != snap.Counters["identify.dials"] {
		t.Errorf("counter ledger out of balance: %+v", snap.Counters)
	}
	if len(passed) == 0 {
		t.Error("no FTP endpoint survived identification in the hostile world")
	}
}
