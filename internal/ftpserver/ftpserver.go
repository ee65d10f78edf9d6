// Package ftpserver implements the FTP server engine that impersonates
// real-world implementations in the simulated Internet. One engine drives
// every personality: the profile supplies banners, reply texts, feature
// lists, and quirks, while per-host configuration supplies the filesystem,
// anonymous-access policy, NAT posture, and FTPS certificate.
//
// The engine serves both simulated connections (via SimHandler) and real TCP
// sockets (via ServeTCP and the Serve accept loop, used by cmd/ftpserved),
// so the enumerator can be validated against the same code over a real
// network. Every host serves a vfs tree, whose listing cache answers the
// LIST family; connection governance (the session cap and idle reaping)
// lives in Governor; and the session loop is allocation-lean —
// preformatted replies, pooled sessions and transfer buffers — so one
// process sustains ~10k concurrent sessions
// (BenchmarkServerConcurrentSessions).
package ftpserver

import (
	"bytes"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"ftpcloud/internal/certs"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

// AnonymousUser is the RFC 1635 anonymous login name; "ftp" is the
// traditional alias.
const AnonymousUser = "anonymous"

// Config describes one FTP host.
type Config struct {
	// Pers selects the implementation profile. Required.
	Pers *personality.Personality
	// Driver is the filesystem the host serves. Required. Sessions read
	// and write it directly, and LIST-family replies come from its
	// listing cache.
	Driver *vfs.FS
	// HostName substitutes %HOST% in banners.
	HostName string
	// PublicIP is the host's routable address: the source of outbound
	// (active-mode) connections and, absent the NAT-leak quirk, the
	// address advertised in PASV replies.
	PublicIP simnet.IP
	// InternalIP, when nonzero, is the RFC 1918 address a NAT-ed device
	// leaks in PASV replies if its personality has the leak quirk.
	InternalIP simnet.IP
	// AllowAnonymous permits RFC 1635 anonymous logins.
	AllowAnonymous bool
	// AnonWritable additionally lets the anonymous user STOR/MKD/DELE.
	AnonWritable bool
	// Users maps additional usernames to passwords (honeypots use weak
	// credentials here).
	Users map[string]string
	// Cert enables AUTH TLS when non-nil.
	Cert *certs.Cert
	// RequireTLS refuses logins until the connection is upgraded.
	RequireTLS bool
	// RequestLimit, when positive, terminates the session with a 421
	// after that many commands — servers in the wild cap crawlers this
	// way, and the enumerator must treat it as refusal of service.
	RequestLimit int
	// IdleTimeout bounds inactivity; zero means the engine default of
	// 60s. Every session enforces it with one idle timer armed at
	// admission; expiry closes the control and any open data conn.
	IdleTimeout time.Duration
	// MaxConns caps concurrent sessions; excess connections are shed
	// with a polite 421. Zero means no admission limit.
	MaxConns int
	// Metrics, when non-nil, receives the server's counters and gauges
	// (accepts, sessions, sheds, logins, transfers, bytes). A nil
	// registry still yields functional unregistered metrics.
	Metrics *obs.Registry
	// Observer, when non-nil, receives session events (honeypots record
	// through this hook).
	Observer Observer
	// Now, when non-nil, stamps observer events instead of time.Now —
	// honeypot fleets inject a simulated clock here so interaction
	// timelines are reproducible run to run.
	Now func() time.Time
}

// MemDriverFromFS returns fs unchanged.
//
// Deprecated: set Config.Driver to the *vfs.FS itself.
func MemDriverFromFS(fs *vfs.FS) *vfs.FS { return fs }

// Observer receives wire-level session events.
type Observer interface {
	// Event is called for each notable session event.
	Event(e Event)
}

// multiObserver fans events to several observers in order.
type multiObserver []Observer

func (m multiObserver) Event(e Event) {
	for _, o := range m {
		o.Event(e)
	}
}

// MultiObserver combines observers into one; nils are dropped. Zero or one
// usable observer short-circuits to exactly that value, so the hot-path
// nil check in session.observe keeps working when nothing listens.
func MultiObserver(obs ...Observer) Observer {
	var m multiObserver
	for _, o := range obs {
		if o != nil {
			m = append(m, o)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	default:
		return m
	}
}

// EventKind classifies observer events.
type EventKind int

// Observer event kinds.
const (
	EventConnect EventKind = iota + 1
	EventCommand
	EventLoginOK
	EventLoginFail
	EventUpload
	EventDownload
	EventPortBounceAttempt
	EventTLSHandshake
	EventDisconnect
	// EventDelete fires only when a DELE actually removed a path; failed
	// deletes (permission denied, no such file) surface as EventCommand
	// alone, keeping delete accounting symmetric with EventUpload.
	EventDelete
)

// String names the kind for event logs.
func (k EventKind) String() string {
	switch k {
	case EventConnect:
		return "connect"
	case EventCommand:
		return "command"
	case EventLoginOK:
		return "login_ok"
	case EventLoginFail:
		return "login_fail"
	case EventUpload:
		return "upload"
	case EventDownload:
		return "download"
	case EventPortBounceAttempt:
		return "port_bounce_attempt"
	case EventTLSHandshake:
		return "tls_handshake"
	case EventDisconnect:
		return "disconnect"
	case EventDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Event is one observed session action.
type Event struct {
	Kind     EventKind
	RemoteIP string
	Command  string // verb for EventCommand
	Arg      string
	User     string
	Pass     string
	Path     string
	Detail   string
	// Bytes is the transfer size for EventUpload/EventDownload.
	Bytes int64
	Time  time.Time
}

// serverMetrics is the registry view of one server, resolved once at
// construction so the hot paths pay one atomic op per event, never a map
// lookup.
type serverMetrics struct {
	accepts    *obs.Counter
	sessions   *obs.Counter
	sheds      *obs.Counter
	commands   *obs.Counter
	logins     *obs.Counter
	loginFails *obs.Counter
	uploads    *obs.Counter
	downloads  *obs.Counter
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	active     *obs.Gauge
}

func resolveMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		accepts:    reg.Counter("ftpserver.accepted"),
		sessions:   reg.Counter("ftpserver.sessions"),
		sheds:      reg.Counter("ftpserver.shed"),
		commands:   reg.Counter("ftpserver.commands"),
		logins:     reg.Counter("ftpserver.logins"),
		loginFails: reg.Counter("ftpserver.login_fails"),
		uploads:    reg.Counter("ftpserver.uploads"),
		downloads:  reg.Counter("ftpserver.downloads"),
		bytesIn:    reg.Counter("ftpserver.bytes_in"),
		bytesOut:   reg.Counter("ftpserver.bytes_out"),
		active:     reg.Gauge("ftpserver.active"),
	}
}

// Server is an immutable host definition; each connection gets a session.
type Server struct {
	cfg Config
	gov *Governor
	m   serverMetrics

	// listKind is the personality's LIST dialect.
	listKind vfs.ListKind

	// Replies that are constant for the server's lifetime, rendered once.
	wireBanner []byte
	wireSyst   []byte
	wireFeat   []byte
	wireHelp   []byte
}

// New validates the configuration and builds a server.
func New(cfg Config) (*Server, error) {
	if cfg.Pers == nil {
		return nil, errors.New("ftpserver: config needs a personality")
	}
	if cfg.Driver == nil {
		return nil, errors.New("ftpserver: config needs a filesystem")
	}
	if cfg.RequireTLS && cfg.Cert == nil {
		return nil, errors.New("ftpserver: RequireTLS without a certificate")
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.Pers.Quirks.CaseInsensitive {
		cfg.Driver.CaseInsensitive = true
	}
	s := &Server{
		cfg: cfg,
		gov: NewGovernor(cfg.MaxConns, cfg.IdleTimeout),
		m:   resolveMetrics(cfg.Metrics),
	}
	if cfg.Pers.Quirks.ListStyle == vfs.StyleDOS {
		s.listKind = vfs.ListDOS
	}

	banner := cfg.Pers.ExpandBanner(remoteIP0(&cfg), cfg.HostName)
	s.wireBanner = ftp.NewReply(ftp.CodeReady, strings.Split(banner, "\n")...).Wire()
	s.wireSyst = ftp.Replyf(ftp.CodeSystem, "%s", cfg.Pers.Syst).Wire()
	if len(cfg.Pers.Features) > 0 {
		lines := make([]string, 0, len(cfg.Pers.Features)+2)
		lines = append(lines, "Features:")
		lines = append(lines, cfg.Pers.Features...)
		lines = append(lines, "End")
		s.wireFeat = ftp.NewReply(ftp.FeatureListCode, lines...).Wire()
	} else {
		s.wireFeat = ftp.Replyf(ftp.CodeNotImplemented, "FEAT not supported").Wire()
	}
	helpLines := cfg.Pers.HelpLines
	if len(helpLines) == 0 {
		helpLines = []string{"Help OK"}
	}
	s.wireHelp = ftp.NewReply(ftp.CodeHelp, helpLines...).Wire()
	return s, nil
}

// Close stops admitting sessions; later connections are shed with a 421.
// In-flight sessions are left to finish on their own goroutines.
func (s *Server) Close() { s.gov.Close() }

// transport abstracts how data channels are established, so the same engine
// serves simulated and real TCP networks.
type transport interface {
	// ListenPASV opens a data listener and returns it with the host-port
	// to advertise in the 227 reply.
	ListenPASV() (net.Listener, ftp.HostPort, error)
	// DialPORT connects to an active-mode target.
	DialPORT(hp ftp.HostPort) (net.Conn, error)
}

// simTransport runs data channels over the simulated network.
type simTransport struct {
	nw  *simnet.Network
	cfg *Config
}

func (t simTransport) ListenPASV() (net.Listener, ftp.HostPort, error) {
	l, err := t.nw.Listen(t.cfg.PublicIP, 0)
	if err != nil {
		return nil, ftp.HostPort{}, err
	}
	addr := l.Addr().(simnet.Addr)
	advertised := t.cfg.PublicIP
	if t.cfg.Pers.Quirks.PASVLeaksInternalIP && t.cfg.InternalIP != 0 {
		advertised = t.cfg.InternalIP
	}
	return l, ftp.HostPort{IP: advertised.Octets(), Port: addr.Port}, nil
}

func (t simTransport) DialPORT(hp ftp.HostPort) (net.Conn, error) {
	ip := simnet.IPFromOctets(hp.IP[0], hp.IP[1], hp.IP[2], hp.IP[3])
	return t.nw.DialFrom(t.cfg.PublicIP, ip, hp.Port)
}

// tcpTransport runs data channels over the real network.
type tcpTransport struct {
	localIP net.IP
}

func (t tcpTransport) ListenPASV() (net.Listener, ftp.HostPort, error) {
	l, err := net.Listen("tcp", net.JoinHostPort(t.localIP.String(), "0"))
	if err != nil {
		return nil, ftp.HostPort{}, err
	}
	hp, err := ftp.HostPortFromAddr(l.Addr().String())
	if err != nil {
		l.Close()
		return nil, ftp.HostPort{}, err
	}
	return l, hp, nil
}

func (t tcpTransport) DialPORT(hp ftp.HostPort) (net.Conn, error) {
	return net.DialTimeout("tcp", hp.Addr(), 5*time.Second)
}

// SimHandler adapts the server to the simulated network.
func (s *Server) SimHandler() simnet.Handler {
	return simnet.HandlerFunc(func(nw *simnet.Network, conn net.Conn) {
		s.serve(conn, simTransport{nw: nw, cfg: &s.cfg})
	})
}

// ServeTCP serves one real TCP connection (cmd/ftpserved).
func (s *Server) ServeTCP(conn net.Conn) {
	localIP := net.IPv4(127, 0, 0, 1)
	if ta, ok := conn.LocalAddr().(*net.TCPAddr); ok {
		localIP = ta.IP
	}
	s.serve(conn, tcpTransport{localIP: localIP})
}

// Serve accepts connections from l until it fails (listener closed), giving
// each to its own session goroutine. Governance — caps, shedding, idle
// expiry — happens inside serve. It returns the accept error.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.m.accepts.Inc()
		go s.ServeTCP(conn)
	}
}

// Preformatted replies shared by every server: the control-channel hot path
// sends these without rendering or allocation.
var (
	wireGoodbye         = ftp.Replyf(ftp.CodeClosing, "Goodbye.").Wire()
	wireNoop            = ftp.Replyf(ftp.CodeOK, "NOOP command successful").Wire()
	wireTooManyRequests = ftp.Replyf(ftp.CodeServiceNotAvail, "Too many requests; closing control connection.").Wire()
	wireUnrecognized    = ftp.Replyf(ftp.CodeCmdUnrecognized, "Syntax error, command unrecognized.").Wire()
	wireShed            = ftp.Replyf(ftp.CodeServiceNotAvail, "Too many connections; try again later.").Wire()
	wirePleaseLogin     = ftp.Replyf(ftp.CodeNotLoggedIn, "Please login with USER and PASS.").Wire()
	wireAnonGranted     = ftp.Replyf(ftp.CodeLoggedIn, "Anonymous access granted, restrictions apply").Wire()
	wireLoginIncorrect  = ftp.Replyf(ftp.CodeNotLoggedIn, "Login incorrect.").Wire()
	wireUserFirst       = ftp.Replyf(ftp.CodeBadSequence, "Login with USER first.").Wire()
	wireModeS           = ftp.Replyf(ftp.CodeOK, "Mode set to S").Wire()
	wireStruF           = ftp.Replyf(ftp.CodeOK, "Structure set to F").Wire()
	wireCwdOK           = ftp.Replyf(ftp.CodeFileOK, "CWD command successful").Wire()
	wireAborOK          = ftp.Replyf(ftp.CodeTransferOK, "ABOR command successful").Wire()
	wireDeleOK          = ftp.Replyf(ftp.CodeFileOK, "DELE command successful").Wire()
	wireRmdOK           = ftp.Replyf(ftp.CodeFileOK, "RMD command successful").Wire()
	wireRenameOK        = ftp.Replyf(ftp.CodeFileOK, "Rename successful").Wire()
	wireRenameFailed    = ftp.Replyf(ftp.CodeFileUnavailable, "Rename failed").Wire()
	wireRnfrOK          = ftp.Replyf(ftp.CodePendingInfo, "File exists, ready for destination name").Wire()
	wireRnfrFirst       = ftp.Replyf(ftp.CodeBadSequence, "RNFR required first").Wire()
	wireTransferOK      = ftp.Replyf(ftp.CodeTransferOK, "Transfer complete").Wire()
	wireTransferAborted = ftp.Replyf(ftp.CodeTransferAborted, "Transfer aborted").Wire()
	wireCantOpenData    = ftp.Replyf(ftp.CodeCantOpenData, "Can't open data connection").Wire()
	wireNoPassive       = ftp.Replyf(ftp.CodeCantOpenData, "Cannot open passive connection").Wire()
	wireOpeningList     = ftp.Replyf(ftp.CodeDataOpen, "Opening ASCII mode data connection for file list").Wire()
	wireOkToSend        = ftp.Replyf(ftp.CodeDataOpen, "Ok to send data").Wire()
	wireTypeI           = ftp.Replyf(ftp.CodeOK, "Type set to I").Wire()
	wireTypeA           = ftp.Replyf(ftp.CodeOK, "Type set to A").Wire()
	wirePortOK          = ftp.Replyf(ftp.CodeOK, "PORT command successful").Wire()
)

// session is per-connection state, pooled across connections.
type session struct {
	srv   *Server
	cfg   *Config
	fs    *vfs.FS
	conn  *ftp.Conn
	trans transport
	cs    *connState

	remoteIP   string
	user       string // pending USER argument
	authedUser string // non-empty after successful login
	anonymous  bool
	cwd        string
	tlsActive  bool
	restOffset int64
	renameFrom string

	pasvListener net.Listener
	pasvAddr     ftp.HostPort
	portTarget   *ftp.HostPort

	requests int

	// scratch backs single-line reply formatting; it grows to the longest
	// reply the session sends and is reused for every subsequent one.
	scratch []byte
	// xfer wraps the data conn of the transfer in progress.
	xfer stampedConn
}

// sessionPool recycles session state (including reply scratch buffers and
// the ftp.Conn's 8 KiB of bufio) across connections.
var sessionPool = sync.Pool{New: func() any {
	return &session{conn: &ftp.Conn{}}
}}

// xferBufPool holds data-transfer copy buffers.
var xferBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// uploadBufPool holds STOR receive buffers.
var uploadBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *Server) serve(nc net.Conn, trans transport) {
	defer nc.Close()

	remoteIP := ""
	if host, _, err := net.SplitHostPort(nc.RemoteAddr().String()); err == nil {
		remoteIP = host
	}

	// Admission: over-cap connections are shed with a 421 before the
	// banner — polite refusal instead of a silent close or an
	// accepted-but-starved session.
	cs, ok := s.gov.Acquire(nc)
	if !ok {
		s.m.sheds.Inc()
		nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
		nc.Write(wireShed)
		return
	}
	defer s.gov.Release(cs)

	s.m.sessions.Inc()
	s.m.active.Inc()
	defer s.m.active.Dec()

	sess := sessionPool.Get().(*session)
	defer func() {
		sess.reset()
		sessionPool.Put(sess)
	}()
	sess.srv = s
	sess.cfg = &s.cfg
	sess.fs = s.cfg.Driver
	sess.trans = trans
	sess.cs = cs
	sess.remoteIP = remoteIP
	sess.cwd = "/"
	if sess.conn == nil {
		sess.conn = &ftp.Conn{}
	}
	if sess.conn.NetConn() == nil {
		*sess.conn = *ftp.NewConn(nc)
	} else {
		sess.conn.Reset(nc)
	}
	c := sess.conn

	defer sess.closeData()
	sess.observe(Event{Kind: EventConnect})
	defer sess.observe(Event{Kind: EventDisconnect})

	if err := c.SendRaw(s.wireBanner); err != nil {
		return
	}

	for {
		// A line that parses as no command draws a 500 and counts as a
		// request, as in servers in the wild; only a transport error or an
		// overlong line ends the session.
		cmd, err := c.ReadCommand()
		bad := errors.Is(err, ftp.ErrBadCommand)
		if err != nil && !bad {
			return
		}
		cs.touch()
		sess.requests++
		s.m.commands.Inc()
		if !bad {
			sess.observe(Event{Kind: EventCommand, Command: cmd.Name, Arg: cmd.Arg})
		}
		if s.cfg.RequestLimit > 0 && sess.requests > s.cfg.RequestLimit {
			c.SendRaw(wireTooManyRequests)
			return
		}
		if bad {
			if c.SendRaw(wireUnrecognized) != nil {
				return
			}
			continue
		}
		if done := sess.dispatch(cmd); done {
			return
		}
	}
}

// reset clears per-connection state, retaining the conn wrapper and scratch
// buffer for the next session.
func (s *session) reset() {
	conn, scratch := s.conn, s.scratch
	*s = session{conn: conn, scratch: scratch}
}

// remoteIP0 yields the address embedded in %IP% banners: NAT-ed devices show
// their internal address (the paper's private-banner-IP observation), others
// their public one.
func remoteIP0(cfg *Config) string {
	if cfg.InternalIP != 0 {
		return cfg.InternalIP.String()
	}
	return cfg.PublicIP.String()
}

func (s *session) observe(e Event) {
	if s.cfg.Observer == nil {
		return
	}
	e.RemoteIP = s.remoteIP
	if e.User == "" {
		e.User = s.authedUser
	}
	if e.Time.IsZero() {
		if s.cfg.Now != nil {
			e.Time = s.cfg.Now()
		} else {
			e.Time = time.Now()
		}
	}
	s.cfg.Observer.Event(e)
}

func (s *session) reply(r ftp.Reply) bool {
	return s.conn.SendReply(r) != nil
}

// replyRaw sends a preformatted reply; the hot path for constant replies.
func (s *session) replyRaw(b []byte) bool {
	return s.conn.SendRaw(b) != nil
}

// replyf formats a single-line reply into the session's scratch buffer.
func (s *session) replyf(code int, format string, args ...any) bool {
	b, err := s.conn.SendReplyLine(s.scratch, code, format, args...)
	s.scratch = b
	return err != nil
}

// dispatch executes one command; the return value reports session end.
func (s *session) dispatch(cmd ftp.Command) bool {
	switch cmd.Name {
	case "QUIT":
		s.replyRaw(wireGoodbye)
		return true
	case "USER":
		return s.cmdUser(cmd.Arg)
	case "PASS":
		return s.cmdPass(cmd.Arg)
	case "AUTH":
		return s.cmdAuth(cmd.Arg)
	case "FEAT":
		return s.replyRaw(s.srv.wireFeat)
	case "SYST":
		return s.replyRaw(s.srv.wireSyst)
	case "NOOP":
		return s.replyRaw(wireNoop)
	case "HELP":
		return s.replyRaw(s.srv.wireHelp)
	case "PBSZ":
		if !s.tlsActive {
			return s.replyf(ftp.CodeBadSequence, "PBSZ requires a security exchange.")
		}
		return s.replyf(ftp.CodeOK, "PBSZ 0 successful")
	case "PROT":
		if !s.tlsActive {
			return s.replyf(ftp.CodeBadSequence, "PROT requires a security exchange.")
		}
		if strings.EqualFold(cmd.Arg, "P") || strings.EqualFold(cmd.Arg, "C") {
			return s.replyf(ftp.CodeOK, "Protection level set to %s", strings.ToUpper(cmd.Arg))
		}
		return s.replyf(ftp.CodeBadProtSetting, "Unsupported protection level")
	}

	if s.authedUser == "" {
		return s.replyRaw(wirePleaseLogin)
	}

	switch cmd.Name {
	case "PWD", "XPWD":
		return s.replyf(ftp.CodePathCreated, "%q is the current directory", s.cwd)
	case "CWD":
		return s.cmdCwd(cmd.Arg)
	case "CDUP", "XCUP":
		return s.cmdCwd("..")
	case "TYPE":
		switch strings.ToUpper(cmd.Arg) {
		case "I":
			return s.replyRaw(wireTypeI)
		case "A":
			return s.replyRaw(wireTypeA)
		case "A N", "L 8":
			return s.replyf(ftp.CodeOK, "Type set to %s", strings.ToUpper(cmd.Arg))
		default:
			return s.replyf(ftp.CodeSyntaxError, "Unrecognized TYPE argument")
		}
	case "MODE":
		if strings.EqualFold(cmd.Arg, "S") {
			return s.replyRaw(wireModeS)
		}
		return s.replyf(ftp.CodeNotImplemented, "Unsupported MODE")
	case "STRU":
		if strings.EqualFold(cmd.Arg, "F") {
			return s.replyRaw(wireStruF)
		}
		return s.replyf(ftp.CodeNotImplemented, "Unsupported STRU")
	case "PASV":
		return s.cmdPasv()
	case "EPSV":
		return s.cmdEpsv()
	case "PORT":
		return s.cmdPort(cmd.Arg)
	case "EPRT":
		return s.cmdEprt(cmd.Arg)
	case "LIST":
		return s.cmdList(cmd.Arg, s.srv.listKind)
	case "NLST":
		return s.cmdList(cmd.Arg, vfs.ListNames)
	case "MLSD":
		if !s.supportsMLSx() {
			return s.replyf(ftp.CodeCmdUnrecognized, "MLSD not understood")
		}
		return s.cmdList(cmd.Arg, vfs.ListMLSD)
	case "MLST":
		return s.cmdMlst(cmd.Arg)
	case "RETR":
		return s.cmdRetr(cmd.Arg)
	case "STOR":
		return s.cmdStor(cmd.Arg)
	case "APPE":
		return s.cmdStor(cmd.Arg)
	case "DELE":
		return s.cmdDele(cmd.Arg)
	case "MKD", "XMKD":
		return s.cmdMkd(cmd.Arg)
	case "RMD", "XRMD":
		return s.cmdRmd(cmd.Arg)
	case "RNFR":
		return s.cmdRnfr(cmd.Arg)
	case "RNTO":
		return s.cmdRnto(cmd.Arg)
	case "SIZE":
		return s.cmdSize(cmd.Arg)
	case "MDTM":
		return s.cmdMdtm(cmd.Arg)
	case "REST":
		return s.cmdRest(cmd.Arg)
	case "ABOR":
		s.closeData()
		return s.replyRaw(wireAborOK)
	case "STAT":
		return s.cmdStat()
	case "SITE":
		return s.cmdSite(cmd.Arg)
	default:
		return s.replyf(ftp.CodeCmdUnrecognized, "%s not understood", cmd.Name)
	}
}

func (s *session) cmdUser(arg string) bool {
	if arg == "" {
		return s.replyf(ftp.CodeSyntaxError, "USER: command requires a parameter")
	}
	if s.cfg.RequireTLS && !s.tlsActive {
		return s.replyf(ftp.CodeNotLoggedIn,
			"This server does not allow plain FTP. You have to use FTP over TLS.")
	}
	lower := strings.ToLower(arg)
	if (lower == AnonymousUser || lower == "ftp") && !s.cfg.AllowAnonymous {
		s.observe(Event{Kind: EventLoginFail, Detail: "anonymous denied", Pass: ""})
		return s.replyf(ftp.CodeNotLoggedIn, "Anonymous access denied.")
	}
	s.user = arg
	return s.replyf(ftp.CodeNeedPassword, "%s", s.cfg.Pers.Expand331(arg))
}

func (s *session) cmdPass(arg string) bool {
	if s.user == "" {
		return s.replyRaw(wireUserFirst)
	}
	lower := strings.ToLower(s.user)
	if lower == AnonymousUser || lower == "ftp" {
		// RFC 1635: any password is accepted for the anonymous user.
		s.authedUser = AnonymousUser
		s.anonymous = true
		s.srv.m.logins.Inc()
		s.observe(Event{Kind: EventLoginOK, Pass: arg, Detail: "anonymous"})
		return s.replyRaw(wireAnonGranted)
	}
	if want, ok := s.cfg.Users[s.user]; ok && want == arg {
		s.authedUser = s.user
		s.srv.m.logins.Inc()
		s.observe(Event{Kind: EventLoginOK, Pass: arg})
		return s.replyf(ftp.CodeLoggedIn, "User %s logged in", s.user)
	}
	s.srv.m.loginFails.Inc()
	s.observe(Event{Kind: EventLoginFail, User: s.user, Pass: arg})
	s.user = ""
	return s.replyRaw(wireLoginIncorrect)
}

func (s *session) cmdAuth(arg string) bool {
	mech := strings.ToUpper(strings.TrimSpace(arg))
	if mech != "TLS" && mech != "SSL" {
		return s.replyf(ftp.CodeSyntaxError, "Unknown AUTH mechanism %s", arg)
	}
	if s.cfg.Cert == nil || !s.cfg.Pers.Quirks.SupportsFTPS {
		return s.replyf(ftp.CodeTLSNotAvailable, "AUTH %s not available", mech)
	}
	if s.tlsActive {
		return s.replyf(ftp.CodeBadSequence, "Already in TLS mode")
	}
	if s.replyf(ftp.CodeAuthOK, "AUTH %s successful", mech) {
		return true
	}
	tc := tls.Server(s.conn.NetConn(), &tls.Config{
		Certificates: []tls.Certificate{s.cfg.Cert.TLSCertificate()},
		MinVersion:   tls.VersionTLS12,
	})
	if err := tc.Handshake(); err != nil {
		return true
	}
	s.conn.Upgrade(tc)
	s.tlsActive = true
	s.observe(Event{Kind: EventTLSHandshake})
	return false
}

func (s *session) cmdSite(arg string) bool {
	if len(s.cfg.Pers.SiteHelp) == 0 {
		return s.replyf(ftp.CodeNotImplemented, "SITE not understood")
	}
	sub := strings.ToUpper(strings.TrimSpace(arg))
	if sub == "HELP" || sub == "" {
		lines := append([]string{"The following SITE commands are recognized:"}, s.cfg.Pers.SiteHelp...)
		return s.reply(ftp.NewReply(ftp.CodeHelp, append(lines, "End")...))
	}
	return s.replyf(ftp.CodeNotImplemented, "SITE %s not understood", sub)
}

func (s *session) cmdCwd(arg string) bool {
	target := vfs.Join(s.cwd, arg)
	node := s.fs.Lookup(target)
	if node == nil || !node.IsDir {
		return s.replyf(ftp.CodeFileUnavailable, "%s: No such file or directory", arg)
	}
	s.cwd = target
	return s.replyRaw(wireCwdOK)
}

func (s *session) cmdPasv() bool {
	if s.cfg.Pers.Quirks.EPSVOnly {
		return s.replyf(ftp.CodeNotImplemented, "PASV not supported; use EPSV")
	}
	s.closeData()
	l, hp, err := s.trans.ListenPASV()
	if err != nil {
		return s.replyRaw(wireNoPassive)
	}
	s.pasvListener = l
	s.pasvAddr = hp
	return s.replyf(ftp.CodePassive, "%s", ftp.FormatPASVReply(hp))
}

func (s *session) cmdEpsv() bool {
	s.closeData()
	l, hp, err := s.trans.ListenPASV()
	if err != nil {
		return s.replyRaw(wireNoPassive)
	}
	s.pasvListener = l
	s.pasvAddr = hp
	return s.replyf(ftp.CodeExtendedPassive, "%s", ftp.FormatEPSVReply(hp.Port))
}

func (s *session) cmdPort(arg string) bool {
	hp, err := ftp.ParseHostPort(arg)
	if err != nil {
		return s.replyf(ftp.CodeSyntaxError, "Illegal PORT command")
	}
	return s.setPortTarget(hp)
}

func (s *session) cmdEprt(arg string) bool {
	// |1|ip|port|
	if len(arg) == 0 {
		return s.replyf(ftp.CodeSyntaxError, "Illegal EPRT command")
	}
	fields := strings.Split(arg, string(arg[0]))
	if len(fields) != 5 || fields[1] != "1" {
		return s.replyf(ftp.CodeSyntaxError, "Illegal EPRT command")
	}
	hp, err := ftp.HostPortFromAddr(net.JoinHostPort(fields[2], fields[3]))
	if err != nil {
		return s.replyf(ftp.CodeSyntaxError, "Illegal EPRT command")
	}
	return s.setPortTarget(hp)
}

func (s *session) setPortTarget(hp ftp.HostPort) bool {
	if hp.IPString() != s.remoteIP {
		s.observe(Event{Kind: EventPortBounceAttempt, Detail: hp.Addr()})
		if s.cfg.Pers.Quirks.ValidatePORT {
			return s.replyf(ftp.CodeCmdUnrecognized,
				"Illegal PORT command: address mismatch")
		}
	}
	s.closeData()
	s.portTarget = &hp
	return s.replyRaw(wirePortOK)
}

// openData establishes the data connection negotiated by PASV or PORT.
func (s *session) openData() (net.Conn, error) {
	if s.pasvListener != nil {
		l := s.pasvListener
		type result struct {
			conn net.Conn
			err  error
		}
		ch := make(chan result, 1)
		go func() {
			c, err := l.Accept()
			ch <- result{conn: c, err: err}
		}()
		t := time.NewTimer(5 * time.Second)
		defer t.Stop()
		select {
		case r := <-ch:
			return r.conn, r.err
		case <-t.C:
			// Closing the listener ends the Accept; a conn it won in the
			// race is closed rather than leaked.
			l.Close()
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
			return nil, errors.New("ftpserver: passive accept timeout")
		}
	}
	if s.portTarget != nil {
		return s.trans.DialPORT(*s.portTarget)
	}
	return nil, errors.New("ftpserver: no data connection negotiated")
}

func (s *session) closeData() {
	if s.pasvListener != nil {
		s.pasvListener.Close()
		s.pasvListener = nil
	}
	s.portTarget = nil
}

// withDataConn runs fn over an established data connection, bracketing it
// with the 150/226 replies. The connection stamps activity per chunk so
// idle expiry spares long slow transfers, and is registered with the
// session's idle timer so a transfer stalled on its peer is torn down with
// the session.
func (s *session) withDataConn(openingMsg []byte, fn func(dc net.Conn) error) bool {
	dc, err := s.openData()
	if err != nil {
		s.closeData()
		return s.replyRaw(wireCantOpenData)
	}
	s.cs.setData(dc)
	defer func() {
		s.cs.setData(nil)
		s.xfer = stampedConn{}
		dc.Close()
		s.closeData()
	}()
	if s.replyRaw(openingMsg) {
		return true
	}
	s.xfer = stampedConn{Conn: dc, cs: s.cs}
	if err := fn(&s.xfer); err != nil {
		return s.replyRaw(wireTransferAborted)
	}
	return s.replyRaw(wireTransferOK)
}

// supportsMLSx reports whether the personality advertises RFC 3659
// machine-readable listings in its FEAT body.
func (s *session) supportsMLSx() bool {
	for _, f := range s.cfg.Pers.Features {
		if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(f)), "MLST") {
			return true
		}
	}
	return false
}

func (s *session) cmdList(arg string, kind vfs.ListKind) bool {
	// Strip ls-style flags ("-la", "-al /pub", ...).
	path := strings.TrimSpace(arg)
	for strings.HasPrefix(path, "-") {
		if i := strings.IndexByte(path, ' '); i >= 0 {
			path = strings.TrimSpace(path[i+1:])
		} else {
			path = ""
		}
	}
	target := s.cwd
	if path != "" {
		target = vfs.Join(s.cwd, path)
	}
	body, err := s.fs.Listing(target, kind, time.Now())
	if err != nil {
		return s.replyf(ftp.CodeFileUnavailable, "%s: No such file or directory", path)
	}
	return s.withDataConn(wireOpeningList, func(dc net.Conn) error {
		n, err := dc.Write(body)
		s.srv.m.bytesOut.Add(uint64(n))
		return err
	})
}

// cmdMlst returns machine-readable facts for one path on the control
// channel (RFC 3659 §7.3).
func (s *session) cmdMlst(arg string) bool {
	if !s.supportsMLSx() {
		return s.replyf(ftp.CodeCmdUnrecognized, "MLST not understood")
	}
	target := s.cwd
	if strings.TrimSpace(arg) != "" {
		target = vfs.Join(s.cwd, arg)
	}
	node := s.fs.Lookup(target)
	if node == nil {
		return s.replyf(ftp.CodeFileUnavailable, "%s: No such file or directory", arg)
	}
	return s.reply(ftp.NewReply(ftp.CodeFileOK,
		"Listing "+target,
		vfs.FormatMLSDLine(node, time.Now()),
		"End"))
}

func (s *session) cmdRetr(arg string) bool {
	target := vfs.Join(s.cwd, arg)
	node := s.fs.Lookup(target)
	if node == nil || node.IsDir {
		return s.replyf(ftp.CodeFileUnavailable, "%s: No such file or directory", arg)
	}
	if node.AnonUpload && s.cfg.Pers.Quirks.AnonUploadNeedsApproval {
		return s.replyf(ftp.CodeFileUnavailable,
			"This file has been uploaded by an anonymous user. It has not "+
				"yet been approved for downloading by the site administrators.")
	}
	if s.anonymous && !node.OtherReadable() {
		return s.replyf(ftp.CodeFileUnavailable, "%s: Permission denied", arg)
	}
	content := node.Content
	if content == nil {
		content = vfs.SynthContent(node.Seed, node.Size)
	}
	if s.restOffset > 0 && s.restOffset < int64(len(content)) {
		content = content[s.restOffset:]
	}
	s.restOffset = 0
	s.srv.m.downloads.Inc()
	s.observe(Event{Kind: EventDownload, Path: target, Bytes: int64(len(content))})
	opening := fmt.Appendf(nil, "150 Opening BINARY mode data connection for %s (%d bytes)\r\n", arg, len(content))
	return s.withDataConn(opening,
		func(dc net.Conn) error {
			n, err := dc.Write(content)
			s.srv.m.bytesOut.Add(uint64(n))
			return err
		})
}

// maxUploadSize bounds attacker-supplied uploads.
const maxUploadSize = 8 << 20

func (s *session) cmdStor(arg string) bool {
	if s.anonymous && !s.cfg.AnonWritable {
		return s.replyf(ftp.CodeFileUnavailable, "%s: Permission denied", arg)
	}
	target := vfs.Join(s.cwd, arg)
	// The file is committed inside the transfer closure so the 226
	// completion reply is only sent once the upload is visible; a rejected
	// write aborts the transfer with a 426.
	return s.withDataConn(wireOkToSend, func(dc net.Conn) error {
		buf := uploadBufPool.Get().(*bytes.Buffer)
		defer func() {
			buf.Reset()
			uploadBufPool.Put(buf)
		}()
		bp := xferBufPool.Get().(*[]byte)
		_, err := io.CopyBuffer(buf, io.LimitReader(dc, maxUploadSize), *bp)
		xferBufPool.Put(bp)
		if err != nil {
			return err
		}
		// The stored copy must outlive the pooled buffer: one exact-size
		// allocation replaces io.ReadAll's growth sequence.
		content := append([]byte(nil), buf.Bytes()...)
		s.srv.m.bytesIn.Add(uint64(len(content)))
		owner := ""
		if s.anonymous {
			owner = "ftp"
		}
		if _, err := s.fs.PutUpload(target, content, vfs.Perm644,
			!s.cfg.Pers.Quirks.UploadRenameSuffix, owner, s.anonymous); err != nil {
			return err
		}
		s.srv.m.uploads.Inc()
		s.observe(Event{Kind: EventUpload, Path: target, Detail: fmt.Sprintf("%d bytes", len(content)), Bytes: int64(len(content))})
		return nil
	})
}

func (s *session) cmdDele(arg string) bool {
	if s.anonymous && !s.cfg.AnonWritable {
		return s.replyf(ftp.CodeFileUnavailable, "%s: Permission denied", arg)
	}
	target := vfs.Join(s.cwd, arg)
	if err := s.fs.Delete(target); err != nil {
		return s.replyf(ftp.CodeFileUnavailable, "%s: No such file or directory", arg)
	}
	s.observe(Event{Kind: EventDelete, Path: target})
	return s.replyRaw(wireDeleOK)
}

func (s *session) cmdMkd(arg string) bool {
	if s.anonymous && !s.cfg.AnonWritable {
		return s.replyf(ftp.CodeFileUnavailable, "%s: Permission denied", arg)
	}
	target := vfs.Join(s.cwd, arg)
	if _, err := s.fs.Mkdir(target, vfs.Perm755); err != nil {
		return s.replyf(ftp.CodeFileUnavailable, "%s: Cannot create directory", arg)
	}
	return s.replyf(ftp.CodePathCreated, "%q - Directory successfully created", target)
}

func (s *session) cmdRmd(arg string) bool {
	if s.anonymous && !s.cfg.AnonWritable {
		return s.replyf(ftp.CodeFileUnavailable, "%s: Permission denied", arg)
	}
	target := vfs.Join(s.cwd, arg)
	node := s.fs.Lookup(target)
	if node == nil || !node.IsDir {
		return s.replyf(ftp.CodeFileUnavailable, "%s: Not a directory", arg)
	}
	if err := s.fs.Delete(target); err != nil {
		return s.replyf(ftp.CodeFileUnavailable, "%s: Directory not empty", arg)
	}
	return s.replyRaw(wireRmdOK)
}

func (s *session) cmdRnfr(arg string) bool {
	target := vfs.Join(s.cwd, arg)
	if s.fs.Lookup(target) == nil {
		return s.replyf(ftp.CodeFileUnavailable, "%s: No such file or directory", arg)
	}
	s.renameFrom = target
	return s.replyRaw(wireRnfrOK)
}

func (s *session) cmdRnto(arg string) bool {
	if s.renameFrom == "" {
		return s.replyRaw(wireRnfrFirst)
	}
	if s.anonymous && !s.cfg.AnonWritable {
		s.renameFrom = ""
		return s.replyf(ftp.CodeFileUnavailable, "%s: Permission denied", arg)
	}
	srcPath := s.renameFrom
	s.renameFrom = ""
	src := s.fs.Lookup(srcPath)
	if src == nil || src.IsDir {
		return s.replyRaw(wireRenameFailed)
	}
	target := vfs.Join(s.cwd, arg)
	content := src.Content
	if content == nil {
		content = vfs.SynthContent(src.Seed, src.Size)
	}
	if _, err := s.fs.PutUpload(target, content, src.Perm, true, "", false); err != nil {
		return s.replyRaw(wireRenameFailed)
	}
	_ = s.fs.Delete(srcPath)
	return s.replyRaw(wireRenameOK)
}

func (s *session) cmdSize(arg string) bool {
	node := s.fs.Lookup(vfs.Join(s.cwd, arg))
	if node == nil || node.IsDir {
		return s.replyf(ftp.CodeFileUnavailable, "%s: not a regular file", arg)
	}
	return s.replyf(213, "%d", node.Size)
}

func (s *session) cmdMdtm(arg string) bool {
	node := s.fs.Lookup(vfs.Join(s.cwd, arg))
	if node == nil {
		return s.replyf(ftp.CodeFileUnavailable, "%s: No such file or directory", arg)
	}
	return s.replyf(213, "%s", node.ModTime().UTC().Format("20060102150405"))
}

func (s *session) cmdRest(arg string) bool {
	var off int64
	if _, err := fmt.Sscanf(strings.TrimSpace(arg), "%d", &off); err != nil || off < 0 {
		return s.replyf(ftp.CodeSyntaxError, "REST requires a byte offset")
	}
	s.restOffset = off
	return s.replyf(ftp.CodePendingInfo, "Restarting at %d. Send STORE or RETRIEVE.", off)
}

func (s *session) cmdStat() bool {
	lines := []string{
		fmt.Sprintf("Status of %q", s.cfg.HostName),
		fmt.Sprintf("Logged in as %s", s.authedUser),
		fmt.Sprintf("Current directory: %s", s.cwd),
		"End of status",
	}
	return s.reply(ftp.NewReply(211, lines...))
}
