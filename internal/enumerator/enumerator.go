// Package enumerator implements the paper's core contribution: a robust FTP
// enumerator that, for each discovered host, attempts an RFC 1635 anonymous
// login, honors robots.txt, traverses the directory structure breadth-first
// under a request cap and rate limit, collects HELP/FEAT/SITE output,
// performs the PORT-validation probe, and grabs the FTPS certificate via
// AUTH TLS before disconnecting.
//
// Ethics machinery from the paper is implemented and enforced: banner
// opt-outs stop login attempts, robots.txt exclusions prune traversal, a
// per-connection request cap bounds load, server-initiated disconnects are
// treated as refusal of service, and files are never bulk-downloaded — only
// robots.txt is ever retrieved.
package enumerator

import (
	"context"
	"crypto/sha256"
	"crypto/tls"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"ftpcloud/internal/campaigns"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/listparse"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/robots"
	"ftpcloud/internal/vfs"
)

// UserAgent identifies the crawler to robots.txt.
const UserAgent = "ftp-enumerator"

// AnonPassword is the password sent for anonymous logins, per RFC 1635 an
// abuse-contact address.
const AnonPassword = "ftp-census@research.example.edu"

// Dialer abstracts connection establishment so the enumerator runs over the
// simulation and over real TCP unchanged.
type Dialer interface {
	Dial(network, address string) (net.Conn, error)
}

// Collector verifies PORT-bounce connections: the enumerator directs the
// server's data channel at the collector and asks whether the connection
// arrived.
type Collector interface {
	// Addr is the collector endpoint to place in PORT arguments.
	Addr() ftp.HostPort
	// Saw reports whether serverIP connected within the wait window. It
	// gives up early, reporting false, when ctx ends.
	Saw(ctx context.Context, serverIP string, wait time.Duration) bool
}

// Config controls enumeration.
type Config struct {
	Dialer Dialer
	// Collector enables the PORT-validation probe when non-nil.
	Collector Collector
	// RequestCap bounds protocol requests per connection (paper: 500).
	RequestCap int
	// RequestDelay spaces consecutive requests (paper: 2/s; zero in
	// simulation runs).
	RequestDelay time.Duration
	// Timeout bounds individual control-channel operations.
	Timeout time.Duration
	// MaxListBytes bounds a single LIST body read.
	MaxListBytes int64
	// TryTLS collects the FTPS certificate before disconnecting.
	TryTLS bool
	// Port is the control-channel port; 0 means 21. Non-standard ports
	// matter for testbeds (and for Ramnit-style rogue servers).
	Port uint16
	// Retry bounds transport-level retries (control dial, banner read,
	// data dial) with jittered backoff.
	Retry RetryPolicy
	// DataIdleTimeout bounds the gap between consecutive data-channel
	// reads; the deadline rolls forward while bytes flow, so long
	// transfers survive but stalled peers do not. Zero means Timeout.
	DataIdleTimeout time.Duration
	// HostBudget caps wall-clock time spent on one host — the temporal
	// analogue of the paper's 500-request cap. Zero means 2 minutes;
	// negative disables.
	HostBudget time.Duration
	// ByteBudget caps total data-channel bytes read from one host. Zero
	// means 64 MiB; negative disables.
	ByteBudget int64
	// Metrics, when non-nil, receives per-interaction latency histograms
	// under enum.latency.* (dial, banner, list, retr, cmd) — the
	// LZR-style timing data service identification leans on.
	Metrics *obs.Registry
	// Now stamps each record's ScannedAt. Nil means time.Now. Injecting a
	// fixed clock makes ledgers reproducible byte-for-byte — which the
	// checkpoint/resume equivalence harness depends on. Budget deadlines
	// always use the real clock.
	Now func() time.Time
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.RequestCap == 0 {
		c.RequestCap = 500
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxListBytes == 0 {
		c.MaxListBytes = 4 << 20
	}
	if c.Port == 0 {
		c.Port = 21
	}
	c.Retry = c.Retry.withDefaults()
	if c.DataIdleTimeout == 0 {
		c.DataIdleTimeout = c.Timeout
	}
	switch {
	case c.HostBudget == 0:
		c.HostBudget = 2 * time.Minute
	case c.HostBudget < 0:
		c.HostBudget = 0
	}
	switch {
	case c.ByteBudget == 0:
		c.ByteBudget = 64 << 20
	case c.ByteBudget < 0:
		c.ByteBudget = 0
	}
	return c
}

// bannerOptOutMarkers are banner phrases that declare anonymous access
// unavailable; per the paper's ethics, seeing one stops the login attempt.
var bannerOptOutMarkers = []string{
	"no anonymous login",
	"no anonymous access",
	"anonymous access denied",
	"private system",
}

// bannerIP returns the leftmost dotted quad in a banner that stands as a
// whole word: four runs of one to three ASCII digits joined by single dots,
// with no letter, digit or underscore on either side. It finds what the
// regexp `\b(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})\b` finds, in one pass.
func bannerIP(s string) string {
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) || (i > 0 && isWordByte(s[i-1])) {
			continue
		}
		if end := dottedQuadEnd(s, i); end > 0 {
			return s[i:end]
		}
	}
	return ""
}

// dottedQuadEnd returns the end of the dotted quad starting at s[i], or -1.
// A run longer than three digits never matches: a shorter prefix of it is
// followed by a digit, which is neither a dot nor a word boundary.
func dottedQuadEnd(s string, i int) int {
	for group := 0; ; group++ {
		j := i
		for j < len(s) && isDigit(s[j]) {
			j++
		}
		if n := j - i; n == 0 || n > 3 {
			return -1
		}
		if group == 3 {
			if j < len(s) && isWordByte(s[j]) {
				return -1
			}
			return j
		}
		if j == len(s) || s[j] != '.' {
			return -1
		}
		i = j + 1
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isWordByte reports an ASCII word character, the class `\b` separates.
func isWordByte(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

// latencies is one enumeration's histogram set, resolved from the registry
// once per host (never per operation).
type latencies struct {
	dial, banner, list, retr, cmd *obs.Histogram
}

// noLatencies absorbs observations when no registry is configured; sharing
// one standalone instance avoids per-host histogram allocation.
var noLatencies = newLatencies(nil)

func newLatencies(reg *obs.Registry) *latencies {
	return &latencies{
		dial:   reg.Histogram("enum.latency.dial"),
		banner: reg.Histogram("enum.latency.banner"),
		list:   reg.Histogram("enum.latency.list"),
		retr:   reg.Histogram("enum.latency.retr"),
		cmd:    reg.Histogram("enum.latency.cmd"),
	}
}

// forVerb routes a control command's round-trip time: the listing and
// RETR-probe verbs get their own histograms, everything else pools.
func (l *latencies) forVerb(verb string) *obs.Histogram {
	switch verb {
	case "LIST", "MLSD":
		return l.list
	case "RETR":
		return l.retr
	default:
		return l.cmd
	}
}

// hostConn is what one enumeration needs while it works a host: a
// control-channel wrapper, rebound with Reset for every connection and
// banner retry, and a 16 KiB data-read buffer. A Fleet lends them from one
// pool, so it holds one per open connection instead of allocating them per
// host; a host that never answers takes none, and one waiting out a banner
// retry's backoff gives its back. A record never aliases either: replies
// and bodies are copied out as strings.
type hostConn struct {
	conn *ftp.Conn
	buf  []byte
}

func newHostConn() *hostConn {
	return &hostConn{conn: ftp.NewConn(nil), buf: make([]byte, 16<<10)}
}

// session carries one enumeration's state.
type session struct {
	ctx     context.Context
	open    openConns
	cfg     Config
	slot    *slot     // the Fleet's lease: source address and hc; nil for Enumerate
	hc      *hostConn // taken at the first connection
	conn    *ftp.Conn
	rec     *dataset.HostRecord
	target  string // control IP
	used    int    // requests consumed
	bud     budget // per-host time/byte ceilings
	lat     *latencies
	closing bool // in the QUIT path; failures are no longer degradation
}

// Enumerate performs the full follow-up protocol against one discovered
// host. It returns a record — partial data plus Error/FailureClass fields on
// failure — unless ctx ends first: then it stops at once and returns nil,
// since a record missing whatever the cancellation interrupted would pass
// for the host's. Hostile servers cannot make it hang (per-command and
// rolling data deadlines), hold it forever (host time budget), or feed it
// unbounded data (byte budget); transient transport faults are retried with
// jittered backoff.
func Enumerate(ctx context.Context, cfg Config, targetIP string) *dataset.HostRecord {
	return enumerate(ctx, cfg, targetIP, nil)
}

// enumerate is Enumerate for a Fleet host when sl is non-nil: the host dials
// from sl's source address, borrows its hostConn from sl's lender, and waits
// out connect-phase backoffs parked (see session.pause). A cancelled ctx
// closes the session's open connections, so a blocked read or write returns
// at once, and no request or wait starts after it; the host is cut and
// yields no record.
func enumerate(ctx context.Context, cfg Config, targetIP string, sl *slot) *dataset.HostRecord {
	cfg = cfg.withDefaults()
	if sl != nil {
		cfg.Dialer = sl.dialer()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	rec := &dataset.HostRecord{
		IP:        targetIP,
		ScannedAt: now().UTC(),
		PortOpen:  true,
		PortCheck: dataset.PortNotTested,
	}
	s := &session{ctx: ctx, cfg: cfg, slot: sl, rec: rec, target: targetIP, lat: noLatencies}
	if cfg.Metrics != nil {
		s.lat = newLatencies(cfg.Metrics)
	}
	if cfg.HostBudget > 0 {
		s.bud.deadline = time.Now().Add(cfg.HostBudget)
	}
	s.bud.maxBytes = cfg.ByteBudget

	defer context.AfterFunc(ctx, s.open.close)()
	// Deferred before run so it runs after run has closed the connection.
	defer s.putHostConn()
	s.run()
	if ctx.Err() != nil {
		return nil
	}
	return rec
}

// run is one enumeration from the dial to QUIT, filling s.rec.
func (s *session) run() {
	rec := s.rec
	banner, ok := s.connect()
	if !ok {
		return
	}
	defer s.conn.Close()
	rec.FTP = true
	rec.Banner = banner.Text()
	if m := bannerIP(rec.Banner); m != "" {
		rec.BannerIP = m
		rec.BannerIPPrivate = isPrivateIP(m)
	}

	lower := strings.ToLower(rec.Banner)
	for _, marker := range bannerOptOutMarkers {
		if strings.Contains(lower, marker) {
			rec.BannerOptOut = true
			break
		}
	}

	if !rec.BannerOptOut {
		s.login()
	}

	// FEAT is collected before traversal so the crawler can prefer
	// RFC 3659 MLSD listings (explicit permission facts) when offered.
	s.collectMeta()
	if rec.AnonymousOK {
		s.fetchRobots()
		s.traverse()
		s.confirmAnonUploads()
		s.probePortValidation()
	}

	if s.cfg.TryTLS {
		s.tryTLS()
	}
	s.closing = true
	s.cmd("QUIT", "")
}

// retryableDial reports whether a dial error is worth retrying: refusal is a
// definitive answer (nothing listens there), everything else — timeouts,
// resets, transient routing — may clear up. The check is by message so it
// covers simnet and kernel errors alike.
func retryableDial(err error) bool {
	return !strings.Contains(err.Error(), "connection refused")
}

// connect dials the control channel and reads the banner, spending the retry
// budget on transient failures. A garbage banner (protocol violation) or a
// well-formed non-220 greeting is an answer about the host, not a transient
// fault, and is never retried.
func (s *session) connect() (ftp.Reply, bool) {
	addr := net.JoinHostPort(s.target, fmt.Sprintf("%d", s.cfg.Port))
	pol := s.cfg.Retry

	var nc net.Conn
	var err error
	for attempt := 1; ; attempt++ {
		start := time.Now()
		nc, err = s.cfg.Dialer.Dial("tcp", addr)
		s.lat.dial.Since(start)
		if err == nil {
			s.open.track(&s.open.ctl, nc)
			break
		}
		if attempt >= pol.Attempts || !retryableDial(err) {
			s.rec.PortOpen = false
			s.rec.Error = fmt.Sprintf("connect: %v", err)
			s.rec.FailureClass = FailConnect
			return ftp.Reply{}, false
		}
		s.rec.Retries++
		if !s.pause(pol.backoff(s.target, attempt)) {
			return ftp.Reply{}, false
		}
	}

	for attempt := 1; ; attempt++ {
		if s.hc == nil {
			if s.slot != nil {
				s.hc = s.slot.conns.Get().(*hostConn)
			} else {
				s.hc = newHostConn()
			}
		}
		s.hc.conn.Reset(nc)
		s.conn = s.hc.conn
		s.conn.Timeout = s.opTimeout()
		start := time.Now()
		banner, rerr := s.conn.ReadReply()
		s.lat.banner.Since(start)
		if rerr == nil && banner.Code == ftp.CodeReady {
			return banner, true
		}
		nc.Close()
		if rerr == nil {
			s.rec.Error = "no FTP banner"
			return ftp.Reply{}, false
		}
		class := classifyErr(rerr)
		if class == FailProtocol || attempt >= pol.Attempts {
			s.rec.Error = fmt.Sprintf("banner: %v", rerr)
			s.rec.FailureClass = class
			return ftp.Reply{}, false
		}
		// Transient (reset, timeout, premature EOF): a fresh session
		// costs one dial and often succeeds against flaky gear.
		s.rec.Retries++
		if !s.pause(pol.backoff(s.target, attempt)) {
			return ftp.Reply{}, false
		}
		redial := time.Now()
		nc, err = s.cfg.Dialer.Dial("tcp", addr)
		s.lat.dial.Since(redial)
		if err != nil {
			s.rec.Error = fmt.Sprintf("banner: %v", rerr)
			s.rec.FailureClass = class
			return ftp.Reply{}, false
		}
		s.open.track(&s.open.ctl, nc)
	}
}

// pause waits d before a connect-phase redial. No connection is open, so a
// Fleet host parks: its hostConn goes back to the pool and its slot to the
// fleet for the wait, and it redials from whichever slot it takes next.
// Enumerate sleeps in place. It reports false when ctx ends first.
func (s *session) pause(d time.Duration) bool {
	if s.slot == nil {
		return sleep(s.ctx, d)
	}
	s.putHostConn()
	ok := s.slot.park(s.ctx, d)
	s.cfg.Dialer = s.slot.dialer()
	return ok
}

// sleep waits d, or until ctx ends; it reports whether d passed first.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// openConns holds a session's open control and data connections for a
// cancelled context to close.
type openConns struct {
	mu        sync.Mutex
	closed    bool
	ctl, data net.Conn
}

// track records c in *field (ctl or data); once close has run it closes
// c instead.
func (o *openConns) track(field *net.Conn, c net.Conn) {
	o.mu.Lock()
	closed := o.closed
	if !closed {
		*field = c
	}
	o.mu.Unlock()
	if closed {
		c.Close()
	}
}

// close closes the tracked connections, and every one tracked after it.
func (o *openConns) close() {
	o.mu.Lock()
	o.closed = true
	ctl, data := o.ctl, o.data
	o.mu.Unlock()
	for _, c := range []net.Conn{ctl, data} {
		if c != nil {
			c.Close()
		}
	}
}

// putHostConn hands a Fleet host's hostConn back to the pool. The wrapper
// lets go of its connection first, so a pooled wrapper pins no closed
// connection.
func (s *session) putHostConn() {
	if s.slot == nil || s.hc == nil {
		return
	}
	s.hc.conn.Reset(nil)
	s.slot.conns.Put(s.hc)
	s.hc, s.conn = nil, nil
}

// opTimeout bounds one control-channel operation: the configured per-command
// timeout, clipped to whatever remains of the host budget.
func (s *session) opTimeout() time.Duration {
	t := s.cfg.Timeout
	left, ok := s.bud.timeLeft()
	if !ok {
		return time.Millisecond // budget spent: fail fast
	}
	if !s.bud.deadline.IsZero() && left < t {
		t = left
	}
	return t
}

// isPrivateIP reports RFC 1918 membership for a dotted quad.
func isPrivateIP(sIP string) bool {
	ip := net.ParseIP(sIP)
	if ip == nil {
		return false
	}
	return ip.IsPrivate()
}

// cmd issues one request, accounting against the cap, the rate limit, and
// the host budget, with a per-command deadline. ok=false means this session
// can issue no further requests; the record explains why (ListingTruncated,
// ConnTerminated, or Partial+FailureClass), unless ctx has ended, which cuts
// the session and its record with it.
func (s *session) cmd(name, arg string) (ftp.Reply, bool) {
	if s.ctx.Err() != nil {
		return ftp.Reply{}, false
	}
	if s.used >= s.cfg.RequestCap {
		s.rec.ListingTruncated = true
		return ftp.Reply{}, false
	}
	if _, ok := s.bud.timeLeft(); !ok {
		if !s.closing {
			s.markDegraded(FailBudgetTime)
		}
		return ftp.Reply{}, false
	}
	if s.cfg.RequestDelay > 0 && s.used > 0 && !sleep(s.ctx, s.cfg.RequestDelay) {
		return ftp.Reply{}, false
	}
	s.used++
	s.rec.RequestsUsed = s.used
	// Per-command deadline: ftp.Conn re-arms it for every read and write,
	// so one slow reply cannot consume more than Timeout, and the whole
	// session cannot outlive the host budget.
	s.conn.Timeout = s.opTimeout()
	start := time.Now()
	r, err := s.conn.Cmd(name, arg)
	s.lat.forVerb(name).Since(start)
	if err != nil {
		// Transport death mid-session: keep the partial record and
		// classify the fault instead of silently abandoning the host.
		s.rec.ConnTerminated = true
		if !s.closing {
			class := classifyErr(err)
			// A deadline that opTimeout clipped to the budget's remainder
			// is budget exhaustion, not server slowness — without this the
			// class depends on whether the pre-command budget check or the
			// clipped deadline fires first.
			if _, ok := s.bud.timeLeft(); class == FailTimeout && !ok {
				class = FailBudgetTime
			}
			s.markDegraded(class)
		}
		return ftp.Reply{}, false
	}
	if r.Code == ftp.CodeServiceNotAvail {
		// Polite 421: an explicit refusal of further service — recorded
		// as termination, but not as a fault.
		s.rec.ConnTerminated = true
		return r, false
	}
	return r, true
}

// login attempts the RFC 1635 anonymous login, upgrading to TLS first when
// the server demands it.
func (s *session) login() {
	r, ok := s.cmd("USER", "anonymous")
	if !ok {
		return
	}
	s.rec.LoginReply = r.Text()
	if r.Code == ftp.CodeNotLoggedIn && strings.Contains(strings.ToUpper(r.Text()), "TLS") {
		// "FTPS required prior to login" — one of the four meanings the
		// paper attributes to login replies.
		s.rec.EnsureFTPS().RequiredPreLogin = true
		if !s.upgradeTLS() {
			return
		}
		r, ok = s.cmd("USER", "anonymous")
		if !ok {
			return
		}
		s.rec.LoginReply = r.Text()
	}
	if r.Code != ftp.CodeNeedPassword && r.Code != ftp.CodeLoggedIn {
		return
	}
	if r.Code == ftp.CodeNeedPassword {
		r, ok = s.cmd("PASS", AnonPassword)
		if !ok {
			return
		}
	}
	if r.Code == ftp.CodeLoggedIn {
		s.rec.AnonymousOK = true
	}
}

// upgradeTLS performs AUTH TLS and records the certificate.
func (s *session) upgradeTLS() bool {
	r, ok := s.cmd("AUTH", "TLS")
	if !ok || r.Code != ftp.CodeAuthOK {
		return false
	}
	tc := tls.Client(s.conn.NetConn(), &tls.Config{
		// The enumerator collects certificates; it never trusts them.
		InsecureSkipVerify: true,
	})
	// The handshake is the one operation outside ftp.Conn's per-command
	// arming, so it gets its own budget-clipped deadline; afterwards the
	// deadline is cleared because every subsequent operation re-arms it.
	tc.SetDeadline(time.Now().Add(s.opTimeout()))
	if err := tc.Handshake(); err != nil {
		s.rec.ConnTerminated = true
		s.markDegraded(classifyErr(err))
		return false
	}
	tc.SetDeadline(time.Time{})
	s.recordTLSState(tc)
	s.conn.Upgrade(tc)
	return true
}

// recordTLSState captures the peer certificate.
func (s *session) recordTLSState(tc *tls.Conn) {
	ftps := s.rec.EnsureFTPS()
	ftps.Supported = true
	peer := tc.ConnectionState().PeerCertificates
	if len(peer) == 0 {
		return
	}
	leaf := peer[0]
	fp := fingerprintHex(leaf.Raw)
	ftps.Cert = &dataset.CertInfo{
		FingerprintSHA256: fp,
		CommonName:        leaf.Subject.CommonName,
		SelfSigned:        leaf.Issuer.CommonName == leaf.Subject.CommonName,
	}
}

// tryTLS attempts AUTH TLS at the end of the session (the paper collects
// certificates from every host, anonymous or not).
func (s *session) tryTLS() {
	if s.rec.FTPSCert() != nil {
		return // already collected during a required-TLS login
	}
	s.upgradeTLS()
}

// openDataConn negotiates a passive data channel (PASV, falling back to
// RFC 2428 EPSV) and dials it, recording NAT evidence from the advertised
// address. When the advertised IP differs from the control IP, the
// enumerator falls back to the control IP — the smart-client recovery real
// crawlers need behind NATs.
//
// The second return value reports whether the control channel remains
// usable: (nil, true) means this one transfer failed — an unparseable PASV
// reply, a dead data port — but the session can continue; (nil, false)
// means the session is over.
func (s *session) openDataConn() (net.Conn, bool) {
	var port uint16
	r, ok := s.cmd("PASV", "")
	if !ok {
		return nil, false
	}
	switch {
	case r.Code == ftp.CodePassive:
		hp, err := ftp.ParsePASVReply(r.Text())
		if err != nil {
			s.markDegraded(FailProtocol)
			return nil, true
		}
		if s.rec.PASVIP == "" {
			s.rec.PASVIP = hp.IPString()
			s.rec.PASVMismatch = hp.IPString() != s.target
		}
		if hp.IPString() == s.target {
			return s.dialData(hp.Addr())
		}
		port = hp.Port
	default:
		// Some implementations support only extended passive mode.
		r, ok = s.cmd("EPSV", "")
		if !ok {
			return nil, false
		}
		if r.Code != ftp.CodeExtendedPassive {
			return nil, true
		}
		p, err := ftp.ParseEPSVReply(r.Text())
		if err != nil {
			s.markDegraded(FailProtocol)
			return nil, true
		}
		port = p
	}
	return s.dialData(net.JoinHostPort(s.target, fmt.Sprintf("%d", port)))
}

// dialData opens the data connection, retrying transient failures. The
// deadline set here covers the connection as a whole; readData re-arms the
// read deadline per chunk, so it governs writes and acts as a backstop. A
// failed data dial degrades the transfer, never the session: (nil, true).
func (s *session) dialData(addr string) (net.Conn, bool) {
	pol := s.cfg.Retry
	for attempt := 1; ; attempt++ {
		start := time.Now()
		dc, err := s.cfg.Dialer.Dial("tcp", addr)
		s.lat.dial.Since(start)
		if err == nil {
			s.open.track(&s.open.data, dc)
			dc.SetDeadline(time.Now().Add(s.opTimeout()))
			return dc, true
		}
		if attempt >= pol.Attempts || !retryableDial(err) {
			s.markDegraded(FailConnect)
			return nil, true
		}
		s.rec.Retries++
		if !sleep(s.ctx, pol.backoff(addr, attempt)) {
			return nil, false
		}
	}
}

// readData drains a data connection under a rolling idle deadline: the
// deadline advances after every chunk, so a long transfer survives as long
// as bytes keep flowing while a stalled peer trips the idle timeout. Bytes
// are charged against the host byte budget; the body is truncated at limit
// without error (mirroring the old io.LimitReader behaviour).
func (s *session) readData(dc net.Conn, limit int64) (string, error) {
	var b strings.Builder
	buf := s.hc.buf
	var total int64
	for {
		left, ok := s.bud.timeLeft()
		if !ok {
			return b.String(), errBudgetTime
		}
		idle := s.cfg.DataIdleTimeout
		if !s.bud.deadline.IsZero() && left < idle {
			idle = left
		}
		if idle > 0 {
			dc.SetReadDeadline(time.Now().Add(idle))
		}
		n, err := dc.Read(buf)
		if n > 0 {
			if total+int64(n) > limit {
				n = int(limit - total)
			}
			b.Write(buf[:n])
			total += int64(n)
			s.rec.DataBytes += int64(n)
			if !s.bud.addBytes(int64(n)) {
				return b.String(), errBudgetBytes
			}
			if total >= limit {
				return b.String(), nil
			}
		}
		if err == io.EOF {
			return b.String(), nil
		}
		if err != nil {
			return b.String(), err
		}
	}
}

// dataFail classifies a failed data-channel read. A timeout on the data
// channel is a stall by definition — the rolling idle deadline only expires
// when the peer stops sending without closing.
func dataFail(err error) string {
	class := classifyErr(err)
	if class == FailTimeout {
		return FailStall
	}
	return class
}

// drainCompletion reads the transfer-completion reply under a short
// deadline (after a broken transfer the server may never send one) and
// reports whether the control channel is still alive.
func (s *session) drainCompletion() bool {
	t := s.opTimeout()
	if t > 2*time.Second {
		t = 2 * time.Second
	}
	s.conn.Timeout = t
	if _, err := s.conn.ReadReply(); err != nil {
		s.rec.ConnTerminated = true
		if !s.closing {
			s.markDegraded(classifyErr(err))
		}
		return false
	}
	return true
}

// retrieve downloads one small file over a data connection (used only for
// robots.txt).
func (s *session) retrieve(path string) (string, bool) {
	dc, _ := s.openDataConn()
	if dc == nil {
		return "", false
	}
	defer dc.Close()
	r, ok := s.cmd("RETR", path)
	if !ok || !r.Preliminary() {
		return "", false
	}
	body, err := s.readData(dc, 64<<10)
	dc.Close()
	if err != nil {
		s.markDegraded(dataFail(err))
		s.drainCompletion()
		return "", false
	}
	// Drain the completion reply; tolerate unusual codes — the body is
	// what matters.
	s.drainCompletion()
	return body, true
}

// fetchRobots retrieves and parses robots.txt per the Robots Exclusion
// Standard.
func (s *session) fetchRobots() {
	body, ok := s.retrieve("robots.txt")
	if !ok || body == "" {
		return
	}
	s.rec.RobotsTxt = body
	rules := robots.Parse(body)
	if rules.ExcludesAll(UserAgent) {
		s.rec.RobotsExcludeAll = true
	}
}

// featHasMLST reports whether the collected FEAT body advertises RFC 3659
// machine-readable listings.
func (s *session) featHasMLST() bool {
	for _, f := range s.rec.Feat {
		if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(f)), "MLST") {
			return true
		}
	}
	return false
}

// listStatus is the outcome of one directory listing.
type listStatus int

const (
	listOK    listStatus = iota // listing retrieved
	listSkip                    // this directory failed; the host is still usable
	listFatal                   // the session is over
)

// list retrieves one directory listing using the given verb (LIST or MLSD).
// A stalled or broken transfer skips the directory — degrading the crawl —
// rather than abandoning the host; any bytes received before the failure
// are still returned for parsing.
func (s *session) list(verb, dir string) (string, listStatus) {
	dc, ctlOK := s.openDataConn()
	if dc == nil {
		if ctlOK {
			s.rec.SkippedDirs++
			return "", listSkip
		}
		return "", listFatal
	}
	defer dc.Close()
	r, ok := s.cmd(verb, dir)
	if !ok {
		return "", listFatal
	}
	if !r.Preliminary() {
		return "", listSkip // directory refused; connection still healthy
	}
	body, err := s.readData(dc, s.cfg.MaxListBytes)
	dc.Close()
	if err != nil {
		class := dataFail(err)
		s.markDegraded(class)
		if class == FailBudgetTime || class == FailBudgetBytes {
			return body, listFatal
		}
		s.rec.SkippedDirs++
		// Closing the data connection above unblocks a stalled sender;
		// now find out whether the control channel survived.
		if !s.drainCompletion() {
			return body, listFatal
		}
		return body, listSkip
	}
	if !s.drainCompletion() {
		return body, listFatal
	}
	return body, listOK
}

// traverse walks the accessible tree breadth-first, respecting robots rules
// and the request cap, and harvesting write evidence.
func (s *session) traverse() {
	var rules *robots.Rules
	if s.rec.RobotsTxt != "" {
		rules = robots.Parse(s.rec.RobotsTxt)
		if s.rec.RobotsExcludeAll {
			return
		}
	}

	// Prefer MLSD when advertised: its explicit permission facts remove
	// the "unk-readability" ambiguity of DOS-style listings.
	verb := "LIST"
	if s.featHasMLST() {
		verb = "MLSD"
	}

	type dirItem struct{ path string }
	queue := []dirItem{{path: "/"}}
	visited := map[string]bool{"/": true}
	evidence := map[string]bool{}
	refSet := campaigns.ReferenceSet()
	now := time.Now()

	for len(queue) > 0 && s.ctx.Err() == nil {
		item := queue[0]
		queue = queue[1:]

		body, st := s.list(verb, item.path)
		if st == listFatal && body == "" {
			return
		}
		var entries []listparse.Entry
		if verb == "MLSD" {
			entries, _ = listparse.ParseMLSDListing(body)
			if len(entries) == 0 && body != "" && st == listOK {
				// Advertised but broken MLSD: fall back to LIST for
				// the remainder of the crawl.
				verb = "LIST"
				body, st = s.list(verb, item.path)
				if st == listFatal && body == "" {
					return
				}
				entries, _ = listparse.ParseListing(body, now)
			}
		} else {
			entries, _ = listparse.ParseListing(body, now)
		}
		for _, e := range entries {
			full := vfs.Join(item.path, e.Name)
			s.rec.Files = append(s.rec.Files, dataset.FileEntry{
				Path:    full,
				Name:    e.Name,
				IsDir:   e.IsDir,
				Size:    e.Size,
				Read:    toDatasetRead(e.Read),
				Write:   toDatasetRead(e.Write),
				Owner:   e.Owner,
				ModTime: e.ModTime,
			})
			if !e.IsDir && refSet[e.Name] && !evidence[e.Name] {
				evidence[e.Name] = true
				s.rec.WriteEvidence = append(s.rec.WriteEvidence, e.Name)
			}
			if e.IsDir && !visited[full] {
				if rules != nil && !rules.Allowed(UserAgent, full) {
					continue
				}
				visited[full] = true
				queue = append(queue, dirItem{path: full})
			}
		}
		if st == listFatal {
			// A partial body was parsed above so nothing already
			// received is lost, but the session is over.
			return
		}
		// listSkip: this subtree is abandoned; the rest of the queue —
		// and the host — survives.
	}
}

// confirmAnonUploads verifies write evidence the way the paper's §VI.A
// reference set was built: Pure-FTPd-style servers refuse RETR of
// anonymously uploaded files with a distinctive message ("has not yet been
// approved"). The probe sends RETR without a data connection, so no file
// content is ever transferred — only the refusal text is observed.
func (s *session) confirmAnonUploads() {
	if len(s.rec.WriteEvidence) == 0 {
		return
	}
	evidence := make(map[string]bool, len(s.rec.WriteEvidence))
	for _, name := range s.rec.WriteEvidence {
		evidence[name] = true
	}
	probes := 0
	for i := range s.rec.Files {
		f := &s.rec.Files[i]
		if f.IsDir || !evidence[f.Name] {
			continue
		}
		if probes >= 2 {
			return
		}
		probes++
		r, ok := s.cmd("RETR", f.Path)
		if !ok {
			return
		}
		if r.Negative() && strings.Contains(strings.ToLower(r.Text()), "uploaded by an anonymous user") {
			s.rec.AnonUploadConfirmed = true
			return
		}
	}
}

// collectMeta gathers HELP, FEAT, SITE, and SYST output.
func (s *session) collectMeta() {
	if r, ok := s.cmd("SYST", ""); ok && r.Positive() {
		s.rec.Syst = r.Text()
	}
	if r, ok := s.cmd("FEAT", ""); ok && r.Code == ftp.FeatureListCode {
		lines := r.Lines
		// Strip the "Features:"/"End" framing.
		if len(lines) >= 2 {
			lines = lines[1 : len(lines)-1]
		}
		s.rec.Feat = append([]string(nil), lines...)
	}
	if r, ok := s.cmd("HELP", ""); ok && r.Code == ftp.CodeHelp {
		s.rec.Help = r.Text()
	}
	if r, ok := s.cmd("SITE", "HELP"); ok && r.Code == ftp.CodeHelp {
		s.rec.Site = r.Text()
	}
}

// probePortValidation asks the server to open a data connection to the
// collector — a third-party address — and records whether it complied.
func (s *session) probePortValidation() {
	if s.cfg.Collector == nil {
		return
	}
	hp := s.cfg.Collector.Addr()
	r, ok := s.cmd("PORT", hp.Encode())
	if !ok {
		return
	}
	if r.Negative() {
		s.rec.PortCheck = dataset.PortValidated
		return
	}
	// The PORT was accepted; LIST triggers the outbound connection.
	if r, ok := s.cmd("LIST", "/"); ok && r.Preliminary() {
		s.drainCompletion()
	}
	if s.cfg.Collector.Saw(s.ctx, s.target, 2*time.Second) {
		s.rec.PortCheck = dataset.PortNotValidated
	} else {
		s.rec.PortCheck = dataset.PortValidated
	}
}

func toDatasetRead(r listparse.Readability) dataset.Readability {
	switch r {
	case listparse.ReadYes:
		return dataset.ReadYes
	case listparse.ReadNo:
		return dataset.ReadNo
	default:
		return dataset.ReadUnknown
	}
}

func fingerprintHex(der []byte) string {
	sum := sha256.Sum256(der)
	return hex.EncodeToString(sum[:])
}
