package enumerator

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"ftpcloud/internal/certs"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

var (
	srvIP = simnet.MustParseIP("5.6.7.8")
	cliIP = simnet.MustParseIP("99.0.0.1")
)

func richFS() *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm755)
	pub := root.Add(vfs.NewDir("pub", vfs.Perm755))
	pub.Add(vfs.NewFile("index.html", vfs.Perm644, 494))
	pub.Add(vfs.NewFile("secret.key", vfs.Perm600, 100))
	photos := pub.Add(vfs.NewDir("photos", vfs.Perm755))
	photos.Add(vfs.NewFile("DSC_0001.jpg", vfs.Perm644, 2_000_000))
	inc := root.Add(vfs.NewDir("incoming", vfs.Perm777))
	inc.Add(vfs.NewFileContent("w0000000t.txt", vfs.Perm644, []byte("Anonymous")))
	priv := root.Add(vfs.NewDir("private", vfs.Perm755))
	priv.Add(vfs.NewFile("hidden.doc", vfs.Perm644, 1))
	return vfs.New(root)
}

// buildNet wires one server config at srvIP into a fresh network.
func buildNet(t *testing.T, cfg ftpserver.Config) *simnet.Network {
	t.Helper()
	if cfg.PublicIP == 0 {
		cfg.PublicIP = srvIP
	}
	srv, err := ftpserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(srvIP, 21, srv.SimHandler())
	return simnet.NewNetwork(provider)
}

func enumConfig(nw *simnet.Network) Config {
	return Config{
		Dialer:  simnet.Dialer{Net: nw, Src: cliIP},
		Timeout: 5 * time.Second,
		TryTLS:  true,
	}
}

func TestEnumerateAnonymousHost(t *testing.T) {
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         richFS(),
		HostName:       "h1.example.net",
		AllowAnonymous: true,
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if rec.Error != "" {
		t.Fatalf("error: %s", rec.Error)
	}
	if !rec.FTP || !rec.AnonymousOK {
		t.Fatalf("record: %+v", rec)
	}
	paths := make(map[string]dataset.FileEntry)
	for _, f := range rec.Files {
		paths[f.Path] = f
	}
	for _, want := range []string{
		"/pub", "/pub/index.html", "/pub/secret.key", "/pub/photos",
		"/pub/photos/DSC_0001.jpg", "/incoming", "/incoming/w0000000t.txt",
		"/private/hidden.doc",
	} {
		if _, ok := paths[want]; !ok {
			t.Errorf("missing %s in listing (have %d files)", want, len(rec.Files))
		}
	}
	if e := paths["/pub/secret.key"]; e.Read != dataset.ReadNo {
		t.Errorf("secret.key read = %v, want no", e.Read)
	}
	if e := paths["/pub/index.html"]; e.Read != dataset.ReadYes {
		t.Errorf("index.html read = %v, want yes", e.Read)
	}
	if len(rec.WriteEvidence) != 1 || rec.WriteEvidence[0] != "w0000000t.txt" {
		t.Errorf("write evidence: %v", rec.WriteEvidence)
	}
	if rec.Syst == "" || len(rec.Feat) == 0 || rec.Help == "" {
		t.Errorf("meta missing: syst=%q feat=%v help=%q", rec.Syst, rec.Feat, rec.Help)
	}
	if rec.PASVIP != srvIP.String() || rec.PASVMismatch {
		t.Errorf("PASV: %s mismatch=%v", rec.PASVIP, rec.PASVMismatch)
	}
}

func TestEnumerateAnonymousDenied(t *testing.T) {
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyVsftpd302),
		Driver:         richFS(),
		AllowAnonymous: false,
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.FTP || rec.AnonymousOK {
		t.Fatalf("record: %+v", rec)
	}
	if len(rec.Files) != 0 {
		t.Errorf("denied host produced listings: %d", len(rec.Files))
	}
	// Meta collection still happens pre-login.
	if rec.Syst == "" {
		t.Error("SYST not collected from denied host")
	}
}

func TestBannerOptOutHonored(t *testing.T) {
	// Pure-FTPd's private-system banner announces no anonymous access;
	// the enumerator must not even try.
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyPureFTPd1036),
		Driver:         richFS(),
		AllowAnonymous: true, // even though the server would accept it
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.BannerOptOut {
		t.Fatalf("opt-out banner not detected: %q", rec.Banner)
	}
	if rec.AnonymousOK || len(rec.Files) > 0 {
		t.Error("enumerator ignored the banner opt-out")
	}
}

func TestRobotsExcludeAllStopsTraversal(t *testing.T) {
	fs := richFS()
	fs.Put("/robots.txt", []byte("User-agent: *\nDisallow: /\n"), vfs.Perm644, true)
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         fs,
		AllowAnonymous: true,
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.RobotsExcludeAll {
		t.Fatalf("exclude-all robots not detected: %q", rec.RobotsTxt)
	}
	if len(rec.Files) != 0 {
		t.Errorf("traversal happened despite robots exclusion: %d files", len(rec.Files))
	}
}

func TestRobotsPartialPrunes(t *testing.T) {
	fs := richFS()
	fs.Put("/robots.txt", []byte("User-agent: *\nDisallow: /private\n"), vfs.Perm644, true)
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         fs,
		AllowAnonymous: true,
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	for _, f := range rec.Files {
		if f.Path == "/private/hidden.doc" {
			t.Error("crawled into robots-disallowed directory")
		}
	}
	found := false
	for _, f := range rec.Files {
		if f.Path == "/pub/index.html" {
			found = true
		}
	}
	if !found {
		t.Error("allowed portion not crawled")
	}
}

func TestRequestCapTruncates(t *testing.T) {
	// Build a wide tree: 60 directories needs >20 requests.
	root := vfs.NewDir("/", vfs.Perm755)
	for i := 0; i < 60; i++ {
		d := root.Add(vfs.NewDir(fmt.Sprintf("dir%02d", i), vfs.Perm755))
		d.Add(vfs.NewFile("f.txt", vfs.Perm644, 1))
	}
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         vfs.New(root),
		AllowAnonymous: true,
	})
	cfg := enumConfig(nw)
	cfg.RequestCap = 20
	rec := Enumerate(context.Background(), cfg, srvIP.String())
	if !rec.ListingTruncated {
		t.Error("cap not reported as truncation")
	}
	if rec.RequestsUsed > 20 {
		t.Errorf("used %d requests, cap 20", rec.RequestsUsed)
	}
}

func TestServerRequestLimitRecordedAsTermination(t *testing.T) {
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         richFS(),
		AllowAnonymous: true,
		RequestLimit:   8,
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.ConnTerminated {
		t.Errorf("server 421 not recorded as termination: %+v", rec)
	}
}

func TestNATDetection(t *testing.T) {
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyQNAPNAS),
		Driver:         richFS(),
		AllowAnonymous: true,
		InternalIP:     simnet.MustParseIP("192.168.1.77"),
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if rec.PASVIP != "192.168.1.77" || !rec.PASVMismatch {
		t.Fatalf("NAT leak not detected: pasv=%s mismatch=%v", rec.PASVIP, rec.PASVMismatch)
	}
	// Despite the mismatch, traversal succeeds via control-IP fallback.
	if len(rec.Files) == 0 {
		t.Error("no files despite smart-client fallback")
	}
	if rec.BannerIP != "192.168.1.77" || !rec.BannerIPPrivate {
		t.Errorf("banner IP: %s private=%v", rec.BannerIP, rec.BannerIPPrivate)
	}
}

func TestPortValidationProbe(t *testing.T) {
	for _, tt := range []struct {
		name string
		pers string
		want dataset.PortValidation
	}{
		{"validating server", personality.KeyProFTPD135, dataset.PortValidated},
		{"vulnerable server", personality.KeyHostedHomePL, dataset.PortNotValidated},
	} {
		t.Run(tt.name, func(t *testing.T) {
			nw := buildNet(t, ftpserver.Config{
				Pers:           personality.ByKey(tt.pers),
				Driver:         richFS(),
				AllowAnonymous: true,
			})
			collector, err := NewSimCollector(nw, simnet.MustParseIP("99.0.0.250"), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer collector.Close()
			cfg := enumConfig(nw)
			cfg.Collector = collector
			rec := Enumerate(context.Background(), cfg, srvIP.String())
			if rec.PortCheck != tt.want {
				t.Errorf("PortCheck = %v, want %v", rec.PortCheck, tt.want)
			}
		})
	}
}

func TestFTPSCertCollection(t *testing.T) {
	pool, err := certs.GeneratePool(11, []certs.Spec{
		{Name: "c", CommonName: "*.home.pl", SelfSigned: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         richFS(),
		AllowAnonymous: true,
		Cert:           pool.Get("c"),
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.FTPSSupported() || rec.FTPSCert() == nil {
		t.Fatalf("FTPS not collected: %+v", rec.FTPS)
	}
	cert := rec.FTPSCert()
	if cert.CommonName != "*.home.pl" {
		t.Errorf("CN = %q", cert.CommonName)
	}
	if cert.SelfSigned {
		t.Error("CA-signed cert reported self-signed")
	}
	if len(cert.FingerprintSHA256) != 64 {
		t.Errorf("fingerprint: %q", cert.FingerprintSHA256)
	}
}

func TestRequireTLSLogin(t *testing.T) {
	pool, err := certs.GeneratePool(12, []certs.Spec{
		{Name: "c", CommonName: "secure.example.org", SelfSigned: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         richFS(),
		AllowAnonymous: true,
		Cert:           pool.Get("c"),
		RequireTLS:     true,
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if rec.FTPS == nil || !rec.FTPS.RequiredPreLogin {
		t.Fatalf("TLS requirement not detected: %+v", rec)
	}
	if !rec.AnonymousOK {
		t.Fatal("login after TLS upgrade failed")
	}
	if rec.FTPSCert() == nil || rec.FTPSCert().CommonName != "secure.example.org" {
		t.Errorf("cert: %+v", rec.FTPSCert())
	}
	if len(rec.Files) == 0 {
		t.Error("no traversal after TLS login")
	}
}

func TestEnumerateGarbageBanner(t *testing.T) {
	provider := simnet.NewStaticProvider()
	provider.Add(srvIP, 21, simnet.HandlerFunc(garbageHandler))
	nw := simnet.NewNetwork(provider)
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if rec.FTP {
		t.Errorf("garbage banner classified as FTP: %+v", rec)
	}
	if !rec.PortOpen {
		t.Error("open port not recorded")
	}
}

func TestEnumerateRefusedHost(t *testing.T) {
	nw := simnet.NewNetwork(nil)
	rec := Enumerate(context.Background(), enumConfig(nw), "4.4.4.4")
	if rec.PortOpen || rec.FTP || rec.Error == "" {
		t.Errorf("refused host record: %+v", rec)
	}
}

func TestFleetEnumeratesStream(t *testing.T) {
	provider := simnet.NewStaticProvider()
	n := 20
	for i := 0; i < n; i++ {
		ip := simnet.IP(uint32(srvIP) + uint32(i))
		srv, err := ftpserver.New(ftpserver.Config{
			Pers:           personality.ByKey(personality.KeyProFTPD135),
			Driver:         richFS(),
			PublicIP:       ip,
			AllowAnonymous: i%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		provider.Add(ip, 21, srv.SimHandler())
	}
	nw := simnet.NewNetwork(provider)

	in := make(chan simnet.IP, n)
	for i := 0; i < n; i++ {
		in <- simnet.IP(uint32(srvIP) + uint32(i))
	}
	close(in)
	out := make(chan *dataset.HostRecord, n)
	fleet := &Fleet{
		Cfg:        Config{Timeout: 5 * time.Second},
		Network:    nw,
		SourceBase: simnet.MustParseIP("99.1.0.0"),
		Workers:    8,
	}
	fleet.Run(context.Background(), in, out)

	var anon, total int
	for rec := range out {
		total++
		if rec.AnonymousOK {
			anon++
		}
	}
	if total != n {
		t.Fatalf("fleet produced %d records, want %d", total, n)
	}
	if anon != n/2 {
		t.Errorf("anonymous = %d, want %d", anon, n/2)
	}
}

func garbageHandler(_ *simnet.Network, conn net.Conn) {
	conn.Write([]byte("SSH-2.0-OpenSSH_5.3\r\n"))
	conn.Close()
}
