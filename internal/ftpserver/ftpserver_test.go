package ftpserver

import (
	"crypto/tls"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ftpcloud/internal/certs"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

const (
	serverIPStr = "5.6.7.8"
	clientIPStr = "1.2.3.4"
)

func testFS() *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm755)
	pub := root.Add(vfs.NewDir("pub", vfs.Perm755))
	pub.Add(vfs.NewFileContent("hello.txt", vfs.Perm644, []byte("hello world")))
	pub.Add(vfs.NewFileContent("secret.key", vfs.Perm600, []byte("PRIVATE")))
	root.Add(vfs.NewDir("incoming", vfs.Perm777))
	return vfs.New(root)
}

type testEnv struct {
	nw       *simnet.Network
	serverIP simnet.IP
	clientIP simnet.IP
}

// newEnv wires a server config into a fresh simulated network.
func newEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	env := &testEnv{
		serverIP: simnet.MustParseIP(serverIPStr),
		clientIP: simnet.MustParseIP(clientIPStr),
	}
	if cfg.PublicIP == 0 {
		cfg.PublicIP = env.serverIP
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(env.serverIP, 21, srv.SimHandler())
	env.nw = simnet.NewNetwork(provider)
	return env
}

// dial opens a control connection and consumes the banner.
func (env *testEnv) dial(t *testing.T) (*ftp.Conn, ftp.Reply) {
	t.Helper()
	nc, err := env.nw.DialFrom(env.clientIP, env.serverIP, 21)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := ftp.NewConn(nc)
	c.Timeout = 5 * time.Second
	banner, err := c.ReadReply()
	if err != nil {
		t.Fatalf("banner: %v", err)
	}
	return c, banner
}

// login performs an anonymous login and fails the test on error.
func login(t *testing.T, c *ftp.Conn) {
	t.Helper()
	r, err := c.Cmd("USER", "anonymous")
	if err != nil || r.Code != ftp.CodeNeedPassword {
		t.Fatalf("USER: %v %v", r, err)
	}
	r, err = c.Cmd("PASS", "research@example.org")
	if err != nil || r.Code != ftp.CodeLoggedIn {
		t.Fatalf("PASS: %v %v", r, err)
	}
}

// openPassive negotiates PASV and dials the advertised endpoint.
func (env *testEnv) openPassive(t *testing.T, c *ftp.Conn) net.Conn {
	t.Helper()
	r, err := c.Cmd("PASV", "")
	if err != nil || r.Code != ftp.CodePassive {
		t.Fatalf("PASV: %v %v", r, err)
	}
	hp, err := ftp.ParsePASVReply(r.Text())
	if err != nil {
		t.Fatal(err)
	}
	dc, err := env.nw.Dial(env.clientIP, hp.Addr())
	if err != nil {
		t.Fatalf("data dial: %v", err)
	}
	t.Cleanup(func() { dc.Close() })
	return dc
}

func anonConfig() Config {
	return Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         testFS(),
		HostName:       "test.example.org",
		AllowAnonymous: true,
	}
}

func TestBannerAndLogin(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, banner := env.dial(t)
	if banner.Code != ftp.CodeReady || !strings.Contains(banner.Text(), "ProFTPD 1.3.5") {
		t.Fatalf("banner = %+v", banner)
	}
	if !strings.Contains(banner.Text(), serverIPStr) {
		t.Errorf("ProFTPD banner should embed host IP: %q", banner.Text())
	}
	login(t, c)
	r, err := c.Cmd("SYST", "")
	if err != nil || r.Code != ftp.CodeSystem || !strings.Contains(r.Text(), "UNIX") {
		t.Errorf("SYST: %+v %v", r, err)
	}
	r, err = c.Cmd("PWD", "")
	if err != nil || r.Code != ftp.CodePathCreated || !strings.Contains(r.Text(), "/") {
		t.Errorf("PWD: %+v %v", r, err)
	}
}

func TestAnonymousDenied(t *testing.T) {
	cfg := anonConfig()
	cfg.AllowAnonymous = false
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	r, err := c.Cmd("USER", "anonymous")
	if err != nil || r.Code != ftp.CodeNotLoggedIn {
		t.Fatalf("USER anonymous: %+v %v", r, err)
	}
}

func TestRealUserLogin(t *testing.T) {
	cfg := anonConfig()
	cfg.AllowAnonymous = false
	cfg.Users = map[string]string{"admin": "admin123"}
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	if r, _ := c.Cmd("USER", "admin"); r.Code != ftp.CodeNeedPassword {
		t.Fatalf("USER admin: %+v", r)
	}
	if r, _ := c.Cmd("PASS", "wrong"); r.Code != ftp.CodeNotLoggedIn {
		t.Fatalf("wrong PASS: %+v", r)
	}
	if r, _ := c.Cmd("USER", "admin"); r.Code != ftp.CodeNeedPassword {
		t.Fatalf("USER retry: %+v", r)
	}
	if r, _ := c.Cmd("PASS", "admin123"); r.Code != ftp.CodeLoggedIn {
		t.Fatalf("right PASS: %+v", r)
	}
}

func TestCommandsRequireLogin(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	for _, verb := range []string{"PWD", "LIST", "RETR", "CWD", "PASV"} {
		r, err := c.Cmd(verb, "x")
		if err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
		if r.Code != ftp.CodeNotLoggedIn {
			t.Errorf("%s before login = %d, want 530", verb, r.Code)
		}
	}
}

func TestFeatAndHelp(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	r, err := c.Cmd("FEAT", "")
	if err != nil || r.Code != ftp.FeatureListCode {
		t.Fatalf("FEAT: %+v %v", r, err)
	}
	if !strings.Contains(r.Text(), "UTF8") || !strings.Contains(r.Text(), "AUTH TLS") {
		t.Errorf("FEAT body: %q", r.Text())
	}
	r, err = c.Cmd("HELP", "")
	if err != nil || r.Code != ftp.CodeHelp {
		t.Fatalf("HELP: %+v %v", r, err)
	}
}

func TestPassiveList(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	dc := env.openPassive(t, c)
	r, err := c.Cmd("LIST", "/pub")
	if err != nil || !r.Preliminary() {
		t.Fatalf("LIST: %+v %v", r, err)
	}
	body, err := io.ReadAll(dc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "hello.txt") || !strings.Contains(string(body), "secret.key") {
		t.Errorf("listing body: %q", body)
	}
	r, err = c.ReadReply()
	if err != nil || r.Code != ftp.CodeTransferOK {
		t.Fatalf("completion: %+v %v", r, err)
	}
}

func TestNLST(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("NLST", "/pub"); !r.Preliminary() {
		t.Fatalf("NLST: %+v", r)
	}
	body, _ := io.ReadAll(dc)
	if string(body) != "hello.txt\r\nsecret.key\r\n" {
		t.Errorf("NLST body: %q", body)
	}
	c.ReadReply()
}

func TestRetr(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("RETR", "/pub/hello.txt"); !r.Preliminary() {
		t.Fatalf("RETR: %+v", r)
	}
	body, _ := io.ReadAll(dc)
	if string(body) != "hello world" {
		t.Errorf("RETR body: %q", body)
	}
	if r, _ := c.ReadReply(); r.Code != ftp.CodeTransferOK {
		t.Errorf("completion: %+v", r)
	}
}

func TestRetrPermissionDenied(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	env.openPassive(t, c)
	r, _ := c.Cmd("RETR", "/pub/secret.key")
	if r.Code != ftp.CodeFileUnavailable {
		t.Fatalf("RETR 600 file = %+v, want 550", r)
	}
}

func TestCwdAndRelativePaths(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("CWD", "pub"); r.Code != ftp.CodeFileOK {
		t.Fatalf("CWD: %+v", r)
	}
	if r, _ := c.Cmd("PWD", ""); !strings.Contains(r.Text(), "/pub") {
		t.Fatalf("PWD after CWD: %+v", r)
	}
	if r, _ := c.Cmd("CWD", "nonexistent"); r.Code != ftp.CodeFileUnavailable {
		t.Fatalf("CWD bad: %+v", r)
	}
	if r, _ := c.Cmd("CDUP", ""); r.Code != ftp.CodeFileOK {
		t.Fatalf("CDUP: %+v", r)
	}
	if r, _ := c.Cmd("PWD", ""); !strings.Contains(r.Text(), `"/"`) {
		t.Fatalf("PWD after CDUP: %+v", r)
	}
}

func TestStorDeniedReadOnly(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	r, _ := c.Cmd("STOR", "/incoming/x.txt")
	if r.Code != ftp.CodeFileUnavailable {
		t.Fatalf("STOR on read-only anon = %+v, want 550", r)
	}
}

func TestStorAndRetrWritable(t *testing.T) {
	cfg := anonConfig()
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)

	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("STOR", "/incoming/w0000000t.txt"); !r.Preliminary() {
		t.Fatalf("STOR: %+v", r)
	}
	dc.Write([]byte("Anonymous"))
	dc.Close()
	if r, _ := c.ReadReply(); r.Code != ftp.CodeTransferOK {
		t.Fatalf("STOR completion: %+v", r)
	}

	// ProFTPD profile has no approval gate: file is retrievable.
	dc2 := env.openPassive(t, c)
	if r, _ := c.Cmd("RETR", "/incoming/w0000000t.txt"); !r.Preliminary() {
		t.Fatalf("RETR after STOR: %+v", r)
	}
	body, _ := io.ReadAll(dc2)
	if string(body) != "Anonymous" {
		t.Errorf("round trip body: %q", body)
	}
	c.ReadReply()
}

func TestPureFTPdApprovalGate(t *testing.T) {
	cfg := anonConfig()
	cfg.Pers = personality.ByKey(personality.KeyPureFTPd1036)
	cfg.AnonWritable = true
	cfg.Cert = nil
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)

	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("STOR", "/incoming/probe.txt"); !r.Preliminary() {
		t.Fatalf("STOR: %+v", r)
	}
	dc.Write([]byte("test"))
	dc.Close()
	c.ReadReply()

	env.openPassive(t, c)
	r, _ := c.Cmd("RETR", "/incoming/probe.txt")
	if r.Code != ftp.CodeFileUnavailable || !strings.Contains(r.Text(), "has not") {
		t.Fatalf("RETR of anon upload = %+v, want Pure-FTPd approval refusal", r)
	}
}

func TestUploadRenameSuffix(t *testing.T) {
	cfg := anonConfig()
	cfg.Pers = personality.ByKey(personality.KeyPureFTPd1036)
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)

	for i := 0; i < 2; i++ {
		dc := env.openPassive(t, c)
		if r, _ := c.Cmd("STOR", "/incoming/name"); !r.Preliminary() {
			t.Fatalf("STOR %d: %+v", i, r)
		}
		dc.Write([]byte("x"))
		dc.Close()
		c.ReadReply()
	}
	fs := cfg.Driver
	if fs.Lookup("/incoming/name") == nil || fs.Lookup("/incoming/name.1") == nil {
		t.Error("upload-rename suffix files missing")
	}
}

func TestMkdDeleRmd(t *testing.T) {
	cfg := anonConfig()
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("MKD", "/incoming/150618120000p"); r.Code != ftp.CodePathCreated {
		t.Fatalf("MKD: %+v", r)
	}
	if r, _ := c.Cmd("RMD", "/incoming/150618120000p"); r.Code != ftp.CodeFileOK {
		t.Fatalf("RMD: %+v", r)
	}
	if r, _ := c.Cmd("DELE", "/pub/hello.txt"); r.Code != ftp.CodeFileOK {
		t.Fatalf("DELE: %+v", r)
	}
	if r, _ := c.Cmd("DELE", "/pub/hello.txt"); r.Code != ftp.CodeFileUnavailable {
		t.Fatalf("DELE again: %+v", r)
	}
}

func TestSizeAndMdtm(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("SIZE", "/pub/hello.txt"); r.Code != 213 || r.Text() != "11" {
		t.Fatalf("SIZE: %+v", r)
	}
	if r, _ := c.Cmd("SIZE", "/pub"); r.Code != ftp.CodeFileUnavailable {
		t.Fatalf("SIZE dir: %+v", r)
	}
	if r, _ := c.Cmd("MDTM", "/pub/hello.txt"); r.Code != 213 || len(r.Text()) != 14 {
		t.Fatalf("MDTM: %+v", r)
	}
}

func TestPortValidationEnforced(t *testing.T) {
	env := newEnv(t, anonConfig()) // ProFTPD validates PORT
	c, _ := env.dial(t)
	login(t, c)
	// Claim a third-party IP.
	r, _ := c.Cmd("PORT", "9,9,9,9,100,0")
	if r.Code != ftp.CodeCmdUnrecognized {
		t.Fatalf("PORT with foreign IP = %+v, want 500", r)
	}
	// The client's own IP is accepted.
	r, _ = c.Cmd("PORT", "1,2,3,4,100,0")
	if r.Code != ftp.CodeOK {
		t.Fatalf("PORT with own IP = %+v, want 200", r)
	}
}

func TestPortBounce(t *testing.T) {
	cfg := anonConfig()
	cfg.Pers = personality.ByKey(personality.KeyHostedHomePL) // no PORT validation
	env := newEnv(t, cfg)

	// A third-party collector listens elsewhere in the network.
	thirdParty := simnet.MustParseIP("9.9.9.9")
	l, err := env.nw.Listen(thirdParty, 4000)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan string, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf, _ := io.ReadAll(conn)
		got <- string(buf)
	}()

	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("PORT", "9,9,9,9,15,160"); r.Code != ftp.CodeOK { // port 4000
		t.Fatalf("PORT: %+v", r)
	}
	if r, _ := c.Cmd("LIST", "/pub"); !r.Preliminary() {
		t.Fatalf("LIST: %+v", r)
	}
	if r, _ := c.ReadReply(); r.Code != ftp.CodeTransferOK {
		t.Fatalf("LIST completion: %+v", r)
	}
	select {
	case body := <-got:
		if !strings.Contains(body, "hello.txt") {
			t.Errorf("bounced listing: %q", body)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("third party never received the bounced data")
	}
}

func TestPASVNATLeak(t *testing.T) {
	cfg := anonConfig()
	cfg.Pers = personality.ByKey(personality.KeyQNAPNAS)
	cfg.InternalIP = simnet.MustParseIP("192.168.1.50")
	env := newEnv(t, cfg)
	c, banner := env.dial(t)
	if !strings.Contains(banner.Text(), "192.168.1.50") {
		t.Errorf("NAT-ed device banner should leak internal IP: %q", banner.Text())
	}
	login(t, c)
	r, _ := c.Cmd("PASV", "")
	hp, err := ftp.ParsePASVReply(r.Text())
	if err != nil {
		t.Fatal(err)
	}
	if hp.IPString() != "192.168.1.50" {
		t.Errorf("PASV advertised %s, want leaked internal IP", hp.IPString())
	}
	// The data port is real on the public IP: connecting to the control
	// peer's address at the advertised port works (smart-client recovery).
	dc, err := env.nw.DialFrom(env.clientIP, env.serverIP, hp.Port)
	if err != nil {
		t.Fatalf("data dial to public IP: %v", err)
	}
	dc.Close()
}

func TestAuthTLS(t *testing.T) {
	pool, err := certs.GeneratePool(3, []certs.Spec{
		{Name: "c", CommonName: "*.example.org", SelfSigned: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := anonConfig()
	cfg.Cert = pool.Get("c")
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	r, err := c.Cmd("AUTH", "TLS")
	if err != nil || r.Code != ftp.CodeAuthOK {
		t.Fatalf("AUTH TLS: %+v %v", r, err)
	}
	tc := tls.Client(c.NetConn(), &tls.Config{InsecureSkipVerify: true})
	if err := tc.Handshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	state := tc.ConnectionState()
	if len(state.PeerCertificates) == 0 ||
		state.PeerCertificates[0].Subject.CommonName != "*.example.org" {
		t.Fatalf("peer certs: %+v", state.PeerCertificates)
	}
	// The control channel continues inside TLS.
	c.Upgrade(tc)
	login(t, c)
}

func TestAuthTLSUnavailable(t *testing.T) {
	env := newEnv(t, anonConfig()) // no cert
	c, _ := env.dial(t)
	r, _ := c.Cmd("AUTH", "TLS")
	if r.Code != ftp.CodeTLSNotAvailable {
		t.Fatalf("AUTH without cert = %+v, want 534", r)
	}
}

func TestRequireTLS(t *testing.T) {
	pool, err := certs.GeneratePool(3, []certs.Spec{
		{Name: "c", CommonName: "secure.example.org", SelfSigned: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := anonConfig()
	cfg.Cert = pool.Get("c")
	cfg.RequireTLS = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	r, _ := c.Cmd("USER", "anonymous")
	if r.Code != ftp.CodeNotLoggedIn || !strings.Contains(r.Text(), "TLS") {
		t.Fatalf("USER without TLS = %+v, want TLS-required 530", r)
	}
}

func TestRequestLimit(t *testing.T) {
	cfg := anonConfig()
	cfg.RequestLimit = 3
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	for i := 0; i < 3; i++ {
		if r, err := c.Cmd("NOOP", ""); err != nil || r.Code != ftp.CodeOK {
			t.Fatalf("NOOP %d: %+v %v", i, r, err)
		}
	}
	r, err := c.Cmd("NOOP", "")
	if err != nil || r.Code != ftp.CodeServiceNotAvail {
		t.Fatalf("over-limit NOOP: %+v %v", r, err)
	}
	// Connection is then closed.
	if _, err := c.Cmd("NOOP", ""); err == nil {
		t.Fatal("session survived past 421")
	}
}

func TestUnknownCommand(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	r, _ := c.Cmd("XYZZY", "")
	if r.Code != ftp.CodeCmdUnrecognized {
		t.Fatalf("XYZZY = %+v", r)
	}
}

// TestUnparseableLine: an empty line and a verb with a digit draw a 500 and
// the session carries on; each counts as a request toward RequestLimit.
func TestUnparseableLine(t *testing.T) {
	cfg := anonConfig()
	cfg.RequestLimit = 3
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	for _, verb := range []string{"", "NOOP1"} {
		r, err := c.Cmd(verb, "")
		if err != nil || r.Code != ftp.CodeCmdUnrecognized || r.Text() != "Syntax error, command unrecognized." {
			t.Fatalf("%q: %+v %v, want 500 Syntax error, command unrecognized.", verb, r, err)
		}
	}
	if r, err := c.Cmd("NOOP", ""); err != nil || r.Code != ftp.CodeOK {
		t.Fatalf("NOOP after two unparseable lines: %+v %v", r, err)
	}
	if r, err := c.Cmd("", ""); err != nil || r.Code != ftp.CodeServiceNotAvail {
		t.Fatalf("fourth request, an empty line: %+v %v, want 421", r, err)
	}
}

func TestListWithFlags(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("LIST", "-la /pub"); !r.Preliminary() {
		t.Fatalf("LIST -la: %+v", r)
	}
	body, _ := io.ReadAll(dc)
	if !strings.Contains(string(body), "hello.txt") {
		t.Errorf("flagged listing: %q", body)
	}
	c.ReadReply()
}

func TestDOSListingStyle(t *testing.T) {
	cfg := anonConfig()
	cfg.Pers = personality.ByKey(personality.KeyIIS75)
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("LIST", "/pub"); !r.Preliminary() {
		t.Fatalf("LIST: %+v", r)
	}
	body, _ := io.ReadAll(dc)
	if strings.Contains(string(body), "rwx") || !strings.Contains(string(body), "hello.txt") {
		t.Errorf("IIS listing should be DOS style: %q", body)
	}
	c.ReadReply()
	// Windows path semantics are case-insensitive.
	if r, _ := c.Cmd("CWD", "/PUB"); r.Code != ftp.CodeFileOK {
		t.Fatalf("case-insensitive CWD: %+v", r)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Driver: testFS()}); err == nil {
		t.Error("missing personality accepted")
	}
	if _, err := New(Config{Pers: personality.ByKey(personality.KeyProFTPD135)}); err == nil {
		t.Error("missing filesystem accepted")
	}
	if _, err := New(Config{
		Pers: personality.ByKey(personality.KeyProFTPD135), Driver: testFS(), RequireTLS: true,
	}); err == nil {
		t.Error("RequireTLS without cert accepted")
	}
}

// TestServeTCPInterop drives the engine over real TCP sockets: the same
// session logic must work outside the simulation.
func TestServeTCPInterop(t *testing.T) {
	srv, err := New(anonConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeTCP(conn)
		}
	}()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := ftp.NewConn(nc)
	c.Timeout = 5 * time.Second
	if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeReady {
		t.Fatalf("banner: %+v %v", r, err)
	}
	login(t, c)

	r, err := c.Cmd("PASV", "")
	if err != nil || r.Code != ftp.CodePassive {
		t.Fatalf("PASV: %+v %v", r, err)
	}
	hp, err := ftp.ParsePASVReply(r.Text())
	if err != nil {
		t.Fatal(err)
	}
	dc, err := net.Dial("tcp", hp.Addr())
	if err != nil {
		t.Fatalf("data dial: %v", err)
	}
	defer dc.Close()
	if r, _ := c.Cmd("RETR", "/pub/hello.txt"); !r.Preliminary() {
		t.Fatalf("RETR: %+v", r)
	}
	body, _ := io.ReadAll(dc)
	if string(body) != "hello world" {
		t.Errorf("TCP RETR body: %q", body)
	}
}

// recorder collects observer events for honeypot-style assertions. Session
// goroutines call Event while the test reads, so every access is locked.
type recorder struct {
	mu     sync.Mutex
	events []Event
	// gone is closed by the first EventDisconnect, the session's last
	// event.
	gone     chan struct{}
	goneSeen bool
}

func newRecorder() *recorder { return &recorder{gone: make(chan struct{})} }

func (r *recorder) Event(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
	if e.Kind == EventDisconnect && !r.goneSeen {
		r.goneSeen = true
		close(r.gone)
	}
}

// snapshot returns a copy of the events recorded so far.
func (r *recorder) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

func (r *recorder) kinds() map[EventKind]int {
	m := make(map[EventKind]int)
	for _, e := range r.snapshot() {
		m[e.Kind]++
	}
	return m
}

// waitDisconnect blocks until a session has emitted EventDisconnect.
func (r *recorder) waitDisconnect(t *testing.T) {
	t.Helper()
	select {
	case <-r.gone:
	case <-time.After(10 * time.Second):
		t.Fatal("no EventDisconnect within 10s")
	}
}

func TestObserverEvents(t *testing.T) {
	rec := newRecorder()
	cfg := anonConfig()
	cfg.Observer = rec
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	c.Cmd("PORT", "9,9,9,9,1,1") // bounce attempt (rejected)
	dc := env.openPassive(t, c)
	c.Cmd("STOR", "/incoming/x")
	dc.Write([]byte("y"))
	dc.Close()
	c.ReadReply()
	if r, err := c.Cmd("QUIT", ""); err != nil || r.Code != 221 {
		t.Fatalf("QUIT: %+v %v", r, err)
	}
	rec.waitDisconnect(t)

	k := rec.kinds()
	if k[EventConnect] != 1 || k[EventLoginOK] != 1 {
		t.Errorf("events: %+v", k)
	}
	if k[EventPortBounceAttempt] != 1 {
		t.Errorf("bounce attempts: %+v", k)
	}
	if k[EventUpload] != 1 {
		t.Errorf("uploads: %+v", k)
	}
}

// TestObserverDeleteEvents: EventDelete fires only when a DELE actually
// removes a path — failed deletes and directory removals don't count, so
// the honeypot's uploads/deletes columns stay comparable.
func TestObserverDeleteEvents(t *testing.T) {
	rec := newRecorder()
	stamp := time.Unix(1_450_000_000, 0)
	cfg := anonConfig()
	cfg.Observer = rec
	cfg.AnonWritable = true
	cfg.Now = func() time.Time { return stamp }
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)

	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("STOR", "/incoming/marker"); !r.Preliminary() {
		t.Fatalf("STOR: %+v", r)
	}
	dc.Write([]byte("y"))
	dc.Close()
	c.ReadReply()

	if r, _ := c.Cmd("DELE", "/incoming/no-such-file"); !r.Negative() {
		t.Fatalf("DELE of missing file: %+v", r)
	}
	if r, _ := c.Cmd("DELE", "/incoming/marker"); r.Negative() {
		t.Fatalf("DELE of marker: %+v", r)
	}
	if r, _ := c.Cmd("MKD", "/incoming/sub"); r.Negative() {
		t.Fatalf("MKD: %+v", r)
	}
	if r, _ := c.Cmd("RMD", "/incoming/sub"); r.Negative() {
		t.Fatalf("RMD: %+v", r)
	}

	k := rec.kinds()
	if k[EventDelete] != 1 {
		t.Errorf("EventDelete count = %d, want 1 (only the successful DELE): %+v", k[EventDelete], k)
	}
	if got := EventDelete.String(); got != "delete" {
		t.Errorf("EventDelete.String() = %q", got)
	}
	for _, e := range rec.snapshot() {
		if !e.Time.Equal(stamp) {
			t.Errorf("event %v stamped %v, want injected clock time %v", e.Kind, e.Time, stamp)
			break
		}
	}
}

// TestMultiObserver: fan-out reaches every sink, drops nils, and
// short-circuits to nil when nothing listens (preserving the server's
// no-observer fast path).
func TestMultiObserver(t *testing.T) {
	if MultiObserver(nil, nil) != nil {
		t.Error("MultiObserver of nils must be nil")
	}
	a, b := newRecorder(), newRecorder()
	if got := MultiObserver(nil, a); got != Observer(a) {
		t.Error("single observer must short-circuit to itself")
	}
	m := MultiObserver(a, nil, b)
	m.Event(Event{Kind: EventConnect})
	if a.kinds()[EventConnect] != 1 || b.kinds()[EventConnect] != 1 {
		t.Error("fan-out missed a sink")
	}
}

// TestCaseInsensitiveQuirkThroughDriver: an iis-7.5 server gets its
// personality's case-insensitive path semantics on the tree it serves, so
// CWD PUB resolves to /pub. LIST PUB and LIST pub share one cached listing:
// an upload into /pub must show in the next LIST PUB.
func TestCaseInsensitiveQuirkThroughDriver(t *testing.T) {
	fs := datedFS(0)
	hello := fs.Lookup("/pub").Add(vfs.NewFileContent("hello.txt", vfs.Perm644, []byte("hello world")))
	hello.MTime = datedMTime
	cfg := Config{
		Pers:           personality.ByKey(personality.KeyIIS75),
		Driver:         fs,
		AllowAnonymous: true,
		AnonWritable:   true,
	}
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("CWD", "PUB"); r.Code != ftp.CodeFileOK {
		t.Fatalf("CWD PUB: %+v", r)
	}
	if r, _ := c.Cmd("SIZE", "hello.txt"); r.Code != 213 || r.Text() != "11" {
		t.Fatalf("SIZE under /PUB: %+v", r)
	}
	if r, _ := c.Cmd("CWD", "/"); r.Code != ftp.CodeFileOK {
		t.Fatalf("CWD /: %+v", r)
	}
	list := func() string {
		t.Helper()
		body, err := env.transfer(c, "LIST", "PUB", nil)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := list(); !strings.Contains(body, "hello.txt") || strings.Contains(body, "new.txt") {
		t.Fatalf("first LIST PUB:\n%s", body)
	}
	if _, err := env.transfer(c, "STOR", "/pub/new.txt", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if body := list(); !strings.Contains(body, "new.txt") {
		t.Fatalf("LIST PUB after STOR /pub/new.txt:\n%s", body)
	}
}
