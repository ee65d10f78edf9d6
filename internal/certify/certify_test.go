package certify

import (
	"context"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/certs"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

var auditorIP = simnet.MustParseIP("250.0.0.1")

// buildTarget wires a server config into a network and returns an auditor.
func buildTarget(t *testing.T, ip simnet.IP, cfg ftpserver.Config) (*simnet.Network, *Auditor) {
	t.Helper()
	cfg.PublicIP = ip
	srv, err := ftpserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(ip, 21, srv.SimHandler())
	nw := simnet.NewNetwork(provider)
	collector, err := enumerator.NewSimCollector(nw, simnet.MustParseIP("250.0.255.1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { collector.Close() })
	return nw, &Auditor{
		Dialer:    simnet.Dialer{Net: nw, Src: auditorIP},
		Collector: collector,
		Timeout:   5 * time.Second,
	}
}

func results(t *testing.T, r *Report) map[CheckID]Result {
	t.Helper()
	m := make(map[CheckID]Result)
	for _, res := range r.Results {
		m[res.ID] = res
	}
	return m
}

func TestAuditSecureServer(t *testing.T) {
	ip := simnet.MustParseIP("100.64.1.1")
	pool, err := certs.GeneratePool(3, []certs.Spec{{Name: "c", CommonName: "unique.example.org", SelfSigned: true}})
	if err != nil {
		t.Fatal(err)
	}
	_, auditor := buildTarget(t, ip, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyServU15), // FTPS-capable, CVE-clean
		Driver:         vfs.New(nil),
		AllowAnonymous: false,
		Cert:           pool.Get("c"),
	})
	report, err := auditor.Audit(context.Background(), ip.String())
	if err != nil {
		t.Fatal(err)
	}
	m := results(t, report)
	if !m[CheckAnonymousLogin].Passed {
		t.Error("anonymous check should pass on a closed server")
	}
	if !m[CheckDefaultCreds].Passed {
		t.Error("default-creds check should pass")
	}
	if !m[CheckTLSAvailable].Passed {
		t.Error("TLS check should pass")
	}
	if !m[CheckKnownCVEs].Passed {
		t.Error("Serv-U 15.1 should be CVE-clean")
	}
	if report.Grade != "A" {
		t.Errorf("grade = %s, want A (%+v)", report.Grade, report.Failed())
	}
}

func TestAuditCVEWarningGrade(t *testing.T) {
	ip := simnet.MustParseIP("100.64.1.9")
	pool, err := certs.GeneratePool(4, []certs.Spec{{Name: "c", CommonName: "x.example.org", SelfSigned: true}})
	if err != nil {
		t.Fatal(err)
	}
	_, auditor := buildTarget(t, ip, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135), // matches CVE-2015-3306
		Driver:         vfs.New(nil),
		AllowAnonymous: false,
		Cert:           pool.Get("c"),
	})
	report, err := auditor.Audit(context.Background(), ip.String())
	if err != nil {
		t.Fatal(err)
	}
	m := results(t, report)
	if m[CheckKnownCVEs].Passed {
		t.Error("ProFTPD 1.3.5 should fail the CVE check")
	}
	if report.Grade != "B" {
		t.Errorf("grade = %s, want B (%+v)", report.Grade, report.Failed())
	}
}

func TestAuditWideOpenDevice(t *testing.T) {
	ip := simnet.MustParseIP("100.64.1.2")
	root := vfs.NewDir("/", vfs.Perm777)
	docs := root.Add(vfs.NewDir("Documents", vfs.Perm755))
	docs.Add(vfs.NewFile("passwords.kdbx", vfs.Perm644, 1000))
	docs.Add(vfs.NewFile("mail.pst", vfs.Perm644, 1000))
	_, auditor := buildTarget(t, ip, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyBuffaloNAS), // no PORT validation
		Driver:         vfs.New(root),
		AllowAnonymous: true,
		AnonWritable:   true,
		Users:          map[string]string{"admin": "admin"},
		InternalIP:     simnet.MustParseIP("192.168.1.50"),
	})
	report, err := auditor.Audit(context.Background(), ip.String())
	if err != nil {
		t.Fatal(err)
	}
	m := results(t, report)
	for _, id := range []CheckID{
		CheckAnonymousLogin, CheckAnonymousWrite, CheckPortValidation,
		CheckDefaultCreds, CheckNoInternalLeak, CheckNoSensitiveLeak,
	} {
		if m[id].Passed {
			t.Errorf("%s should fail on the wide-open device: %s", id, m[id].Detail)
		}
	}
	if report.Grade != "F" {
		t.Errorf("grade = %s, want F", report.Grade)
	}
	// The write probe must clean up its marker.
	// (Buffalo profile has no rename-suffix quirk, so the name is exact.)
	for _, f := range report.Record.Files {
		if f.Name == "certify-probe.txt" {
			t.Error("write probe left its marker behind")
		}
	}
}

func TestAuditSharedCertificate(t *testing.T) {
	ip := simnet.MustParseIP("100.64.1.3")
	pool, err := certs.GeneratePool(3, []certs.Spec{{Name: "c", CommonName: "QNAP NAS", SelfSigned: true}})
	if err != nil {
		t.Fatal(err)
	}
	cert := pool.Get("c")
	_, auditor := buildTarget(t, ip, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyQNAPNAS),
		Driver:         vfs.New(nil),
		AllowAnonymous: false,
		Cert:           cert,
	})
	fp := make([]byte, 32)
	copy(fp, cert.Fingerprint[:])
	auditor.SharedFingerprints = map[string]int{hexOf(cert.Fingerprint[:]): 57655}

	report, err := auditor.Audit(context.Background(), ip.String())
	if err != nil {
		t.Fatal(err)
	}
	m := results(t, report)
	if m[CheckUniqueCert].Passed {
		t.Error("fleet-shared certificate not flagged")
	}
	if !strings.Contains(m[CheckUniqueCert].Detail, "57655") {
		t.Errorf("detail: %s", m[CheckUniqueCert].Detail)
	}
}

func TestAuditNonFTP(t *testing.T) {
	nw := simnet.NewNetwork(nil)
	auditor := &Auditor{Dialer: simnet.Dialer{Net: nw, Src: auditorIP}, Timeout: time.Second}
	if _, err := auditor.Audit(context.Background(), "100.64.9.9"); err == nil {
		t.Error("audit of dead host succeeded")
	}
}

func TestRender(t *testing.T) {
	r := &Report{
		Target: "1.2.3.4",
		Grade:  "F",
		Results: []Result{
			{ID: CheckAnonymousLogin, Passed: false, Severity: SeverityCritical, Detail: "open"},
			{ID: CheckTLSAvailable, Passed: true, Severity: SeverityWarning, Detail: "ok"},
		},
	}
	out := Render(r)
	for _, want := range []string{"grade F", "[FAIL]", "[PASS]", "CRITICAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestGrade(t *testing.T) {
	crit := Result{Severity: SeverityCritical}
	warn := Result{Severity: SeverityWarning}
	pass := Result{Passed: true, Severity: SeverityCritical}
	if g := grade([]Result{pass, pass}); g != "A" {
		t.Errorf("clean grade = %s", g)
	}
	if g := grade([]Result{pass, warn}); g != "B" {
		t.Errorf("one warning = %s", g)
	}
	if g := grade([]Result{warn, warn}); g != "C" {
		t.Errorf("two warnings = %s", g)
	}
	if g := grade([]Result{warn, crit}); g != "F" {
		t.Errorf("critical = %s", g)
	}
}

func hexOf(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, len(b)*2)
	for i, v := range b {
		out[i*2] = digits[v>>4]
		out[i*2+1] = digits[v&0xf]
	}
	return string(out)
}
