// Package attacker simulates the malicious traffic §VIII's honeypots
// observed: Internet-background scanners, HTTP probes against port 21,
// credential guessers, anonymous write probers, staged ftpchk3 infections,
// PORT bouncers sharing one third-party target, CVE-2015-3306 probes, the
// Seagate root-login exploit, AUTH TLS device fingerprinting, and WaReZ
// directory creation.
//
// Bot behaviour profiles and their mix are calibrated to the paper's
// observed population: 457 unique scanning IPs, ~30% from one network, 85
// speaking FTP, 8 PORT bouncers aiming at the same address, 36 AUTH TLS
// fingerprinters, one CVE attempt, one Seagate attempt.
package attacker

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftpcloud/internal/ftp"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// Profile selects a bot behaviour.
type Profile int

// Bot profiles.
const (
	ProfileScannerOnly Profile = iota + 1
	ProfileHTTPProbe
	ProfileCredGuesser
	ProfileWriteProber
	ProfileTraverser
	ProfileFtpchk3
	ProfilePortBouncer
	ProfileCVEExploit
	ProfileSeagateRAT
	ProfileTLSFingerprint
	ProfileWarezMkdir
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case ProfileScannerOnly:
		return "scanner-only"
	case ProfileHTTPProbe:
		return "http-probe"
	case ProfileCredGuesser:
		return "credential-guesser"
	case ProfileWriteProber:
		return "write-prober"
	case ProfileTraverser:
		return "traverser"
	case ProfileFtpchk3:
		return "ftpchk3"
	case ProfilePortBouncer:
		return "port-bouncer"
	case ProfileCVEExploit:
		return "cve-exploit"
	case ProfileSeagateRAT:
		return "seagate-rat"
	case ProfileTLSFingerprint:
		return "tls-fingerprint"
	case ProfileWarezMkdir:
		return "warez-mkdir"
	default:
		return "unknown"
	}
}

// Bot is one attacking host.
type Bot struct {
	Source  simnet.IP
	Profile Profile
	// Seed varies per-bot choices (credentials, directory names).
	Seed uint64
}

// Fleet drives a set of bots against targets.
type Fleet struct {
	Network *simnet.Network
	Bots    []Bot
	Targets []simnet.IP
	// BounceTarget is the shared third-party address PORT bouncers use
	// (the paper saw all eight aim at one IP).
	BounceTarget ftp.HostPort
	// Timeout bounds each bot's control operations.
	Timeout time.Duration
	// Concurrency caps in-flight bot sessions; zero means 32. Campaigns
	// in the millions of sessions raise this toward the server core's 10k
	// budget.
	Concurrency int
	// Sessions is the campaign's session budget: the bots collectively
	// run exactly this many sessions, session k deterministically assigned
	// bot k%len(Bots) and a salted target, so campaigns replay identically.
	// Zero means the paper's schedule — every bot visits every target
	// exactly once: len(Bots)×len(Targets) sessions, session k running bot
	// k%len(Bots) against target k/len(Bots).
	Sessions int64
	// Now is the campaign clock; nil means time.Now. Injecting a
	// simulated clock (honeypot.SimClock) makes interaction timelines
	// reproducible run to run.
	Now func() time.Time
	// Metrics, when non-nil, mirrors the run's aggregate Stats into
	// registry counters (attacker.bots, attacker.sessions,
	// attacker.errors) as bots complete, so live progress can watch an
	// attack campaign the way the census watches enumeration. The
	// attacker.inflight gauge tracks live sessions and
	// attacker.inflight_peak their high-water mark.
	Metrics *obs.Registry
}

// weakCredentials is the guessing dictionary; combined with per-bot suffix
// variation it yields the >1,400 unique pairs the paper observed.
var weakCredentials = [][2]string{
	{"admin", "admin"}, {"admin", "password"}, {"admin", "1234"},
	{"root", "root"}, {"root", "toor"}, {"user", "user"},
	{"test", "test"}, {"ftp", "ftp"}, {"guest", "guest"},
	{"admin", "admin123"}, {"administrator", "password"},
	{"www", "www"}, {"web", "web"}, {"oracle", "oracle"},
	{"pi", "raspberry"}, {"ubnt", "ubnt"},
}

// DefaultMix builds the §VIII-calibrated bot population: n total bots with
// concentrated sources (share from one /8) and the paper's profile counts
// scaled proportionally. The population is always exactly n bots: every
// profile — including the paper's singleton CVE and Seagate attackers —
// scales as count*n/457, so small fleets shed the rare profiles instead of
// overflowing n and starving the background-scanner remainder.
func DefaultMix(n int, seed uint64, concentratedShare float64) []Bot {
	if n <= 0 {
		n = 457
	}
	bots := make([]Bot, 0, n)
	// Profile mix per the paper: of 457 scanners, 85 spoke FTP; the
	// rest probed HTTP or only connected.
	counts := map[Profile]int{
		ProfilePortBouncer:    8 * n / 457,
		ProfileTLSFingerprint: 36 * n / 457,
		ProfileCVEExploit:     n / 457,
		ProfileSeagateRAT:     n / 457,
		ProfileCredGuesser:    24 * n / 457,
		ProfileWriteProber:    8 * n / 457,
		ProfileFtpchk3:        3 * n / 457,
		ProfileTraverser:      16 * n / 457,
		ProfileWarezMkdir:     3 * n / 457,
		ProfileHTTPProbe:      290 * n / 457,
	}
	// The scaled profile counts sum to at most 390*n/457 < n, so the
	// scanner-only remainder is never negative and len(bots) == n holds
	// for every n (TestDefaultMixExactN).
	total := 0
	for _, c := range counts {
		total += c
	}
	counts[ProfileScannerOnly] = n - total

	state := seed
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	idx := 0
	for _, profile := range []Profile{
		ProfileScannerOnly, ProfileHTTPProbe, ProfileCredGuesser,
		ProfileWriteProber, ProfileTraverser, ProfileFtpchk3,
		ProfilePortBouncer, ProfileCVEExploit, ProfileSeagateRAT,
		ProfileTLSFingerprint, ProfileWarezMkdir,
	} {
		for i := 0; i < counts[profile]; i++ {
			var src simnet.IP
			if float64(idx) < concentratedShare*float64(n) {
				// The concentrated network: one /8 (the paper's
				// "China Unicom Henan Province Network" analogue).
				src = simnet.IPFromOctets(61, byte(next()%200), byte(next()%250), byte(1+next()%250))
			} else {
				src = simnet.IPFromOctets(byte(80+next()%100), byte(next()%250), byte(next()%250), byte(1+next()%250))
			}
			bots = append(bots, Bot{Source: src, Profile: profile, Seed: next()})
			idx++
		}
	}
	return bots
}

// Stats summarizes a fleet run.
type Stats struct {
	BotsRun   int
	Sessions  int
	Errors    int
	ByProfile map[Profile]int
	// Elapsed is the wall (or simulated, when Fleet.Now is injected)
	// duration of the run.
	Elapsed time.Duration
}

func (f *Fleet) now() time.Time {
	if f.Now != nil {
		return f.Now()
	}
	return time.Now()
}

// fleetRun is the per-run instrumentation.
type fleetRun struct {
	stats    *Stats
	mu       sync.Mutex
	sessions *obs.Counter
	errors   *obs.Counter
	inflight *obs.Gauge
	peak     *obs.Gauge
}

// session runs one bot visit over the worker's control-conn wrapper c, with
// inflight accounting. Sessions count only visits that actually dialed: a
// canceled or refused dial is an error, not a session, so stats never claim
// interactions that produced no server-side events.
func (r *fleetRun) session(f *Fleet, c *ftp.Conn, b Bot, target simnet.IP, timeout time.Duration) {
	r.inflight.Inc()
	r.peak.SetMax(r.inflight.Load())
	dialed, err := f.visit(c, b, target, timeout)
	r.inflight.Dec()
	if dialed {
		r.sessions.Inc()
	}
	if err != nil {
		r.errors.Inc()
	}
	r.mu.Lock()
	if dialed {
		r.stats.Sessions++
	}
	if err != nil {
		r.stats.Errors++
	}
	r.mu.Unlock()
}

// Run executes the fleet's campaign (see Fleet.Sessions). Cancellation stops
// the fleet promptly: unclaimed sessions are abandoned and never counted.
func (f *Fleet) Run(ctx context.Context) Stats {
	stats := Stats{ByProfile: make(map[Profile]int)}
	start := f.now()
	timeout := f.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	conc := f.Concurrency
	if conc <= 0 {
		conc = 32
	}
	run := &fleetRun{
		stats:    &stats,
		sessions: f.Metrics.Counter("attacker.sessions"),
		errors:   f.Metrics.Counter("attacker.errors"),
		inflight: f.Metrics.Gauge("attacker.inflight"),
		peak:     f.Metrics.Gauge("attacker.inflight_peak"),
	}
	f.runCampaign(ctx, run, timeout, conc)
	stats.Elapsed = f.now().Sub(start)
	return stats
}

// runCampaign drives the campaign: conc workers claim session indices from
// an atomic counter until the budget is spent or the context is canceled.
// Assignment is deterministic in the session index, so a campaign replays
// identically regardless of worker interleaving. Each worker owns one
// ftp.Conn and rebinds it per visit, as the server's session pool does, so a
// session costs no fresh bufio buffers.
func (f *Fleet) runCampaign(ctx context.Context, run *fleetRun, timeout time.Duration, conc int) {
	nb, nt := int64(len(f.Bots)), int64(len(f.Targets))
	if nb == 0 || nt == 0 {
		return
	}
	budget := f.Sessions
	if budget <= 0 {
		budget = nb * nt
	}
	botsC := f.Metrics.Counter("attacker.bots")
	ran := make([]bool, len(f.Bots))
	var claim atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := ftp.NewConn(nil)
			for {
				k := claim.Add(1) - 1
				if k >= budget {
					return
				}
				select {
				case <-ctx.Done():
					return
				default:
				}
				bi := int(k % nb)
				b := f.Bots[bi]
				ti := k / nb
				if f.Sessions > 0 {
					ti = int64((uint64(k)*0x9e3779b97f4a7c15 + b.Seed) % uint64(nt))
				}
				target := f.Targets[ti]
				run.mu.Lock()
				if !ran[bi] {
					ran[bi] = true
					run.stats.BotsRun++
					run.stats.ByProfile[b.Profile]++
					botsC.Inc()
				}
				run.mu.Unlock()
				run.session(f, c, b, target, timeout)
				// Let the honeypot goroutine our close just woke end its
				// session now. Otherwise this worker's dial/reply
				// ping-pong keeps the P, and closed sessions queue by the
				// hundred behind it, each holding its server state.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// visit runs one bot session against one honeypot, rebinding c to the new
// connection. dialed reports whether a connection was established — callers
// count sessions only when it is true.
func (f *Fleet) visit(c *ftp.Conn, b Bot, target simnet.IP, timeout time.Duration) (dialed bool, err error) {
	nc, err := f.Network.DialFrom(b.Source, target, 21)
	if err != nil {
		return false, err
	}
	defer nc.Close()
	c.Reset(nc)
	c.Timeout = timeout

	if _, err := c.ReadReply(); err != nil {
		return true, err
	}
	switch b.Profile {
	case ProfileScannerOnly:
		return true, nil
	case ProfileHTTPProbe:
		// Raw HTTP against the FTP port; the server logs the verb.
		if err := c.SendCommand("GET", "/ HTTP/1.0"); err != nil {
			return true, err
		}
		c.ReadReply()
		return true, nil
	case ProfileCredGuesser:
		return true, f.guessCredentials(c, b, target)
	case ProfileWriteProber:
		return true, f.writeProbe(c, b, target)
	case ProfileTraverser:
		return true, f.traverse(c, b)
	case ProfileFtpchk3:
		return true, f.ftpchk3(c, b, target)
	case ProfilePortBouncer:
		return true, f.portBounce(c)
	case ProfileCVEExploit:
		return true, f.cveProbe(c)
	case ProfileSeagateRAT:
		return true, f.seagate(c)
	case ProfileTLSFingerprint:
		return true, f.tlsFingerprint(c)
	case ProfileWarezMkdir:
		return true, f.warezMkdir(c, b)
	default:
		return true, fmt.Errorf("attacker: unknown profile %v", b.Profile)
	}
}

func anonLogin(c *ftp.Conn) error {
	if r, err := c.Cmd("USER", "anonymous"); err != nil || r.Code != ftp.CodeNeedPassword {
		return fmt.Errorf("attacker: USER rejected")
	}
	if r, err := c.Cmd("PASS", "mozilla@example.com"); err != nil || r.Code != ftp.CodeLoggedIn {
		return fmt.Errorf("attacker: PASS rejected")
	}
	return nil
}

func (f *Fleet) guessCredentials(c *ftp.Conn, b Bot, target simnet.IP) error {
	// Each guesser tries a slice of the dictionary plus variants salted
	// by bot and target — real campaigns rotate passwords per victim,
	// which is how the paper accumulated >1,400 unique pairs.
	for i := 0; i < 8; i++ {
		pair := weakCredentials[(int(b.Seed%uint64(len(weakCredentials)))+i)%len(weakCredentials)]
		user, pass := pair[0], pair[1]
		if i >= 3 {
			pass = fmt.Sprintf("%s%d", pass, (b.Seed>>8+uint64(target)*31+uint64(i))%100000)
		}
		if r, err := c.Cmd("USER", user); err != nil || r.Negative() {
			return err
		}
		if r, err := c.Cmd("PASS", pass); err != nil {
			return err
		} else if r.Code == ftp.CodeLoggedIn {
			return nil
		}
	}
	return nil
}

// openDataAndStore uploads content via PASV.
func openDataAndStore(f *Fleet, c *ftp.Conn, src simnet.IP, name string, content []byte) error {
	r, err := c.Cmd("PASV", "")
	if err != nil || r.Code != ftp.CodePassive {
		return fmt.Errorf("attacker: PASV failed")
	}
	hp, err := ftp.ParsePASVReply(r.Text())
	if err != nil {
		return err
	}
	dc, err := f.Network.Dial(src, hp.Addr())
	if err != nil {
		return err
	}
	defer dc.Close()
	if r, err := c.Cmd("STOR", name); err != nil || !r.Preliminary() {
		return fmt.Errorf("attacker: STOR refused")
	}
	if _, err := dc.Write(content); err != nil {
		return err
	}
	dc.Close()
	_, err = c.ReadReply()
	return err
}

func (f *Fleet) writeProbe(c *ftp.Conn, b Bot, target simnet.IP) error {
	if err := anonLogin(c); err != nil {
		return err
	}
	if err := openDataAndStore(f, c, b.Source, "hello.world.txt", []byte("aGVsbG8gd29ybGQ=")); err != nil {
		return err
	}
	// Probe campaigns delete their marker afterwards (§VIII.B).
	_, err := c.Cmd("DELE", "hello.world.txt")
	return err
}

func (f *Fleet) traverse(c *ftp.Conn, b Bot) error {
	if err := anonLogin(c); err != nil {
		return err
	}
	// Blind traversal of web-root paths, as observed.
	for _, dir := range []string{"cgi-bin", "www", "public_html", "htdocs"} {
		c.Cmd("CWD", "/"+dir)
		c.Cmd("CWD", "/")
	}
	r, err := c.Cmd("PASV", "")
	if err != nil || r.Code != ftp.CodePassive {
		return err
	}
	hp, err := ftp.ParsePASVReply(r.Text())
	if err != nil {
		return err
	}
	dc, err := f.Network.Dial(b.Source, hp.Addr())
	if err != nil {
		return err
	}
	defer dc.Close()
	if r, err := c.Cmd("LIST", "/"); err != nil || !r.Preliminary() {
		return err
	}
	io.Copy(io.Discard, dc)
	c.ReadReply()
	return nil
}

func (f *Fleet) ftpchk3(c *ftp.Conn, b Bot, target simnet.IP) error {
	if err := anonLogin(c); err != nil {
		return err
	}
	if err := openDataAndStore(f, c, b.Source, "ftpchk3.txt", []byte("ftpchk3")); err != nil {
		return err
	}
	return openDataAndStore(f, c, b.Source, "ftpchk3.php", []byte(`<?php echo "OK"; ?>`))
}

func (f *Fleet) portBounce(c *ftp.Conn) error {
	if err := anonLogin(c); err != nil {
		return err
	}
	if r, err := c.Cmd("PORT", f.BounceTarget.Encode()); err != nil || r.Negative() {
		return err
	}
	if r, err := c.Cmd("LIST", "/"); err == nil && r.Preliminary() {
		c.ReadReply()
	}
	return nil
}

func (f *Fleet) cveProbe(c *ftp.Conn) error {
	// CVE-2015-3306: unauthenticated mod_copy SITE CPFR/CPTO.
	c.Cmd("SITE", "CPFR /etc/passwd")
	c.Cmd("SITE", "CPTO /tmp/.x")
	return nil
}

func (f *Fleet) seagate(c *ftp.Conn) error {
	// Seagate Central: root account without a password grants access.
	if r, err := c.Cmd("USER", "root"); err != nil || r.Negative() {
		return err
	}
	if r, err := c.Cmd("PASS", ""); err != nil || r.Code != ftp.CodeLoggedIn {
		return nil // honeypot rejects; the attempt is what gets recorded
	}
	return nil
}

func (f *Fleet) tlsFingerprint(c *ftp.Conn) error {
	r, err := c.Cmd("AUTH", "TLS")
	if err != nil || r.Code != ftp.CodeAuthOK {
		return err
	}
	tc := tls.Client(c.NetConn(), &tls.Config{InsecureSkipVerify: true})
	tc.SetDeadline(time.Now().Add(3 * time.Second))
	if err := tc.Handshake(); err != nil {
		return err
	}
	tc.Close()
	return nil
}

func (f *Fleet) warezMkdir(c *ftp.Conn, b Bot) error {
	if err := anonLogin(c); err != nil {
		return err
	}
	name := fmt.Sprintf("%012dp", b.Seed%1_000_000_000_000)
	_, err := c.Cmd("MKD", "/"+name)
	return err
}
