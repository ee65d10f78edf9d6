package ftpserver

import (
	"crypto/tls"
	"io"
	"strings"
	"testing"

	"ftpcloud/internal/certs"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
)

func TestTypeModeStru(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	for _, tt := range []struct {
		verb, arg string
		want      int
	}{
		{"TYPE", "I", ftp.CodeOK},
		{"TYPE", "A", ftp.CodeOK},
		{"TYPE", "X", ftp.CodeSyntaxError},
		{"MODE", "S", ftp.CodeOK},
		{"MODE", "B", ftp.CodeNotImplemented},
		{"STRU", "F", ftp.CodeOK},
		{"STRU", "R", ftp.CodeNotImplemented},
	} {
		r, err := c.Cmd(tt.verb, tt.arg)
		if err != nil || r.Code != tt.want {
			t.Errorf("%s %s = %+v (%v), want %d", tt.verb, tt.arg, r, err, tt.want)
		}
	}
}

func TestRestAndResumedRetr(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("REST", "6"); r.Code != ftp.CodePendingInfo {
		t.Fatalf("REST: %+v", r)
	}
	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("RETR", "/pub/hello.txt"); !r.Preliminary() {
		t.Fatalf("RETR: %+v", r)
	}
	body, _ := io.ReadAll(dc)
	if string(body) != "world" {
		t.Errorf("resumed body = %q, want %q", body, "world")
	}
	c.ReadReply()
	if r, _ := c.Cmd("REST", "notanumber"); r.Code != ftp.CodeSyntaxError {
		t.Errorf("bad REST: %+v", r)
	}
	if r, _ := c.Cmd("REST", "-5"); r.Code != ftp.CodeSyntaxError {
		t.Errorf("negative REST: %+v", r)
	}
}

func TestRenameFlow(t *testing.T) {
	cfg := anonConfig()
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("RNTO", "/x"); r.Code != ftp.CodeBadSequence {
		t.Fatalf("RNTO without RNFR: %+v", r)
	}
	if r, _ := c.Cmd("RNFR", "/nope"); r.Code != ftp.CodeFileUnavailable {
		t.Fatalf("RNFR missing: %+v", r)
	}
	if r, _ := c.Cmd("RNFR", "/pub/hello.txt"); r.Code != ftp.CodePendingInfo {
		t.Fatalf("RNFR: %+v", r)
	}
	if r, _ := c.Cmd("RNTO", "/pub/renamed.txt"); r.Code != ftp.CodeFileOK {
		t.Fatalf("RNTO: %+v", r)
	}
	if cfg.Driver.Lookup("/pub/renamed.txt") == nil || cfg.Driver.Lookup("/pub/hello.txt") != nil {
		t.Error("rename did not move the file")
	}
}

func TestRenameDeniedReadOnly(t *testing.T) {
	env := newEnv(t, anonConfig()) // read-only
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("RNFR", "/pub/hello.txt"); r.Code != ftp.CodePendingInfo {
		t.Fatalf("RNFR: %+v", r)
	}
	if r, _ := c.Cmd("RNTO", "/pub/stolen.txt"); r.Code != ftp.CodeFileUnavailable {
		t.Fatalf("read-only RNTO: %+v", r)
	}
}

func TestStatAbortSite(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	r, _ := c.Cmd("STAT", "")
	if r.Code != 211 || !strings.Contains(r.Text(), "anonymous") {
		t.Errorf("STAT: %+v", r)
	}
	if r, _ := c.Cmd("ABOR", ""); r.Code != ftp.CodeTransferOK {
		t.Errorf("ABOR: %+v", r)
	}
	// ProFTPD profile supports SITE HELP.
	if r, _ := c.Cmd("SITE", "HELP"); r.Code != ftp.CodeHelp {
		t.Errorf("SITE HELP: %+v", r)
	}
	if r, _ := c.Cmd("SITE", "CHMOD 777 x"); r.Code != ftp.CodeNotImplemented {
		t.Errorf("SITE CHMOD: %+v", r)
	}
}

func TestSiteUnsupported(t *testing.T) {
	cfg := anonConfig()
	cfg.Pers = personality.ByKey(personality.KeyVsftpd302) // no SiteHelp
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("SITE", "HELP"); r.Code != ftp.CodeNotImplemented {
		t.Errorf("SITE on vsftpd: %+v", r)
	}
}

func TestEPSVAndEPRT(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)

	r, err := c.Cmd("EPSV", "")
	if err != nil || r.Code != ftp.CodeExtendedPassive {
		t.Fatalf("EPSV: %+v %v", r, err)
	}
	port, err := ftp.ParseEPSVReply(r.Text())
	if err != nil {
		t.Fatal(err)
	}
	dc, err := env.nw.DialFrom(env.clientIP, env.serverIP, port)
	if err != nil {
		t.Fatalf("EPSV data dial: %v", err)
	}
	defer dc.Close()
	if r, _ := c.Cmd("RETR", "/pub/hello.txt"); !r.Preliminary() {
		t.Fatalf("RETR over EPSV: %+v", r)
	}
	body, _ := io.ReadAll(dc)
	if string(body) != "hello world" {
		t.Errorf("EPSV body: %q", body)
	}
	c.ReadReply()

	// EPRT with own address is accepted; with foreign address rejected.
	if r, _ := c.Cmd("EPRT", "|1|1.2.3.4|5000|"); r.Code != ftp.CodeOK {
		t.Errorf("EPRT own: %+v", r)
	}
	if r, _ := c.Cmd("EPRT", "|1|9.9.9.9|5000|"); r.Code != ftp.CodeCmdUnrecognized {
		t.Errorf("EPRT foreign: %+v", r)
	}
	for _, bad := range []string{"", "|2|::1|5000|", "|1|notanip|5000|", "|1|1.2.3.4|"} {
		if r, _ := c.Cmd("EPRT", bad); r.Code != ftp.CodeSyntaxError {
			t.Errorf("EPRT %q: %+v", bad, r)
		}
	}
}

func TestPBSZAndPROT(t *testing.T) {
	pool, err := certs.GeneratePool(8, []certs.Spec{{Name: "c", CommonName: "x", SelfSigned: true}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := anonConfig()
	cfg.Cert = pool.Get("c")
	env := newEnv(t, cfg)
	c, _ := env.dial(t)

	// PBSZ/PROT before the security exchange are rejected.
	if r, _ := c.Cmd("PBSZ", "0"); r.Code != ftp.CodeBadSequence {
		t.Errorf("PBSZ pre-TLS: %+v", r)
	}
	if r, _ := c.Cmd("PROT", "P"); r.Code != ftp.CodeBadSequence {
		t.Errorf("PROT pre-TLS: %+v", r)
	}

	if r, _ := c.Cmd("AUTH", "TLS"); r.Code != ftp.CodeAuthOK {
		t.Fatal("AUTH failed")
	}
	tc := tls.Client(c.NetConn(), &tls.Config{InsecureSkipVerify: true})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	c.Upgrade(tc)
	if r, _ := c.Cmd("PBSZ", "0"); r.Code != ftp.CodeOK {
		t.Errorf("PBSZ: %+v", r)
	}
	if r, _ := c.Cmd("PROT", "P"); r.Code != ftp.CodeOK {
		t.Errorf("PROT P: %+v", r)
	}
	if r, _ := c.Cmd("PROT", "S"); r.Code != ftp.CodeBadProtSetting {
		t.Errorf("PROT S: %+v", r)
	}
	// Double AUTH is a sequence error.
	if r, _ := c.Cmd("AUTH", "TLS"); r.Code != ftp.CodeBadSequence {
		t.Errorf("double AUTH: %+v", r)
	}
}

func TestAuthBadMechanism(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	if r, _ := c.Cmd("AUTH", "KERBEROS"); r.Code != ftp.CodeSyntaxError {
		t.Errorf("AUTH KERBEROS: %+v", r)
	}
}

func TestAppendBehavesLikeStor(t *testing.T) {
	cfg := anonConfig()
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("APPE", "/incoming/log.txt"); !r.Preliminary() {
		t.Fatalf("APPE: %+v", r)
	}
	dc.Write([]byte("appended"))
	dc.Close()
	c.ReadReply()
	if cfg.Driver.Lookup("/incoming/log.txt") == nil {
		t.Error("APPE did not create the file")
	}
}

func TestUserEdgeCases(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	if r, _ := c.Cmd("USER", ""); r.Code != ftp.CodeSyntaxError {
		t.Errorf("empty USER: %+v", r)
	}
	if r, _ := c.Cmd("PASS", "x"); r.Code != ftp.CodeBadSequence {
		t.Errorf("PASS before USER: %+v", r)
	}
	// "ftp" is the traditional anonymous alias.
	if r, _ := c.Cmd("USER", "ftp"); r.Code != ftp.CodeNeedPassword {
		t.Errorf("USER ftp: %+v", r)
	}
	if r, _ := c.Cmd("PASS", "x@y"); r.Code != ftp.CodeLoggedIn {
		t.Errorf("PASS for ftp alias: %+v", r)
	}
}

func TestListMissingDirectory(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	env.openPassive(t, c)
	if r, _ := c.Cmd("LIST", "/no/such/dir"); r.Code != ftp.CodeFileUnavailable {
		t.Errorf("LIST missing: %+v", r)
	}
}

func TestDataConnWithoutNegotiation(t *testing.T) {
	env := newEnv(t, anonConfig())
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("RETR", "/pub/hello.txt"); r.Code != ftp.CodeCantOpenData {
		t.Errorf("RETR without PASV/PORT: %+v", r)
	}
}

func TestXVariants(t *testing.T) {
	cfg := anonConfig()
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	if r, _ := c.Cmd("XPWD", ""); r.Code != ftp.CodePathCreated {
		t.Errorf("XPWD: %+v", r)
	}
	if r, _ := c.Cmd("XMKD", "/incoming/xdir"); r.Code != ftp.CodePathCreated {
		t.Errorf("XMKD: %+v", r)
	}
	if r, _ := c.Cmd("XRMD", "/incoming/xdir"); r.Code != ftp.CodeFileOK {
		t.Errorf("XRMD: %+v", r)
	}
	if r, _ := c.Cmd("XCUP", ""); r.Code != ftp.CodeFileOK {
		t.Errorf("XCUP: %+v", r)
	}
}

func TestMaxUploadBounded(t *testing.T) {
	cfg := anonConfig()
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	dc := env.openPassive(t, c)
	if r, _ := c.Cmd("STOR", "/incoming/big.bin"); !r.Preliminary() {
		t.Fatal("STOR refused")
	}
	// Stream more than maxUploadSize; the server must stop reading at
	// the cap rather than buffer unboundedly.
	chunk := make([]byte, 1<<20)
	for i := 0; i < 10; i++ {
		if _, err := dc.Write(chunk); err != nil {
			break // server stopped reading: acceptable
		}
	}
	dc.Close()
	c.ReadReply()
	node := cfg.Driver.Lookup("/incoming/big.bin")
	if node == nil {
		t.Fatal("upload missing")
	}
	if node.Size > maxUploadSize {
		t.Errorf("stored %d bytes, cap %d", node.Size, maxUploadSize)
	}
}

func TestEPSVOnlySimNATAdvertisement(t *testing.T) {
	// PASV leak quirk must not break EPSV (port-only, no address).
	cfg := anonConfig()
	cfg.Pers = personality.ByKey(personality.KeyQNAPNAS)
	cfg.InternalIP = simnet.MustParseIP("192.168.0.9")
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	r, _ := c.Cmd("EPSV", "")
	if r.Code != ftp.CodeExtendedPassive {
		t.Fatalf("EPSV: %+v", r)
	}
	port, err := ftp.ParseEPSVReply(r.Text())
	if err != nil {
		t.Fatal(err)
	}
	dc, err := env.nw.DialFrom(env.clientIP, env.serverIP, port)
	if err != nil {
		t.Fatalf("EPSV dial: %v", err)
	}
	dc.Close()
}
