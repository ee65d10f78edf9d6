// Package certify implements the paper's §X proposal: a "CyberUL"-style
// certification suite that tests a device or server for the well-known,
// often-exploited FTP weaknesses the study measured. The paper argues that
// "it would be easy to test for well known and often exploited
// vulnerabilities such as anonymous logins and port bouncing" — this
// package is that test battery.
//
// An Auditor drives the same enumerator used by the census against one
// target (simulated or real TCP), adds a default-credential probe, and
// grades the result.
package certify

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"ftpcloud/internal/cvedb"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/ftp"
)

// CheckID names one certification test.
type CheckID string

// The certification battery.
const (
	CheckAnonymousLogin  CheckID = "anonymous-login-disabled"
	CheckAnonymousWrite  CheckID = "anonymous-write-disabled"
	CheckPortValidation  CheckID = "port-command-validated"
	CheckDefaultCreds    CheckID = "no-default-credentials"
	CheckKnownCVEs       CheckID = "no-known-cves-in-banner"
	CheckTLSAvailable    CheckID = "ftps-available"
	CheckUniqueCert      CheckID = "certificate-not-fleet-shared"
	CheckNoInternalLeak  CheckID = "no-internal-address-leak"
	CheckNoSensitiveLeak CheckID = "no-sensitive-files-visible"
)

// Severity weighs a failed check.
type Severity int

// Severities.
const (
	SeverityInfo Severity = iota + 1
	SeverityWarning
	SeverityCritical
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SeverityCritical:
		return "CRITICAL"
	case SeverityWarning:
		return "WARNING"
	default:
		return "INFO"
	}
}

// Result is one executed check.
type Result struct {
	ID       CheckID
	Passed   bool
	Severity Severity
	Detail   string
}

// Report is a completed audit.
type Report struct {
	Target  string
	Results []Result
	// Grade summarizes: "A" (all pass) through "F" (critical failures).
	Grade string
	// Record is the underlying enumeration record.
	Record *dataset.HostRecord
}

// Failed returns the failed checks.
func (r *Report) Failed() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Passed {
			out = append(out, res)
		}
	}
	return out
}

// defaultCredentials is the default/weak account battery the audit tries
// (the Seagate root/no-password hole is the paper's exhibit A).
var defaultCredentials = [][2]string{
	{"root", ""}, {"admin", "admin"}, {"admin", "password"},
	{"admin", ""}, {"user", "user"}, {"guest", "guest"},
}

// Auditor runs the certification battery.
type Auditor struct {
	// Dialer connects to the target (simulated or real TCP).
	Dialer enumerator.Dialer
	// Collector enables the PORT-validation check when non-nil.
	Collector enumerator.Collector
	// SharedFingerprints maps known fleet-shared certificate
	// fingerprints (hex SHA-256) to their observed population — fed from
	// census data; a device presenting one fails CheckUniqueCert.
	SharedFingerprints map[string]int
	// Timeout bounds each probe.
	Timeout time.Duration
}

// Audit runs the full battery against one target address.
func (a *Auditor) Audit(ctx context.Context, target string) (*Report, error) {
	timeout := a.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	rec := enumerator.Enumerate(ctx, enumerator.Config{
		Dialer:    a.Dialer,
		Collector: a.Collector,
		Timeout:   timeout,
		TryTLS:    true,
	}, target)
	if rec == nil {
		return nil, ctx.Err()
	}
	if !rec.FTP {
		return nil, fmt.Errorf("certify: %s is not an FTP server (%s)", target, rec.Error)
	}

	report := &Report{Target: target, Record: rec}
	add := func(id CheckID, passed bool, sev Severity, detail string) {
		report.Results = append(report.Results, Result{ID: id, Passed: passed, Severity: sev, Detail: detail})
	}

	// Anonymous login.
	add(CheckAnonymousLogin, !rec.AnonymousOK, SeverityCritical,
		pick(rec.AnonymousOK,
			"anonymous login succeeded: all contents are public",
			"anonymous login rejected"))

	// Anonymous write: evidenced by reference-set files, or verified by
	// an upload probe when anonymous access is open.
	writable := len(rec.WriteEvidence) > 0
	var writeDetail string
	if rec.AnonymousOK {
		probed, err := a.probeWrite(target, timeout)
		if err == nil {
			writable = writable || probed
		}
		writeDetail = pick(writable,
			"anonymous upload accepted: free storage for malware and probes",
			"anonymous upload rejected")
	} else {
		writeDetail = "not applicable (anonymous access closed)"
	}
	add(CheckAnonymousWrite, !writable, SeverityCritical, writeDetail)

	// PORT validation.
	switch rec.PortCheck {
	case dataset.PortNotValidated:
		add(CheckPortValidation, false, SeverityCritical,
			"server opened a data connection to a third party (FTP bounce)")
	case dataset.PortValidated:
		add(CheckPortValidation, true, SeverityCritical, "PORT arguments validated")
	default:
		add(CheckPortValidation, true, SeverityInfo, "not tested (no collector or no anonymous access)")
	}

	// Default credentials.
	hit, pair := a.probeDefaultCreds(target, timeout)
	add(CheckDefaultCreds, !hit, SeverityCritical,
		pick(hit, fmt.Sprintf("default credentials accepted: %s/%s", pair[0], pair[1]),
			"default-credential battery rejected"))

	// Banner CVEs.
	class := fingerprint.Classify(rec)
	matches := cvedb.Match(class.Software, class.Version)
	if len(matches) > 0 {
		ids := make([]string, len(matches))
		for i, m := range matches {
			ids[i] = m.ID
		}
		add(CheckKnownCVEs, false, SeverityWarning,
			"banner version matches "+strings.Join(ids, ", "))
	} else {
		add(CheckKnownCVEs, true, SeverityWarning, "no known CVEs for advertised version")
	}

	// FTPS availability.
	add(CheckTLSAvailable, rec.FTPSSupported(), SeverityWarning,
		pick(rec.FTPSSupported(), "AUTH TLS available", "no TLS: credentials and data travel in cleartext"))

	// Fleet-shared certificate.
	if cert := rec.FTPSCert(); cert != nil {
		n := a.SharedFingerprints[cert.FingerprintSHA256]
		add(CheckUniqueCert, n <= 1, SeverityCritical,
			pick(n > 1,
				fmt.Sprintf("certificate shared with %d other devices: one extracted key MITMs the whole fleet", n),
				"certificate not observed elsewhere"))
	} else {
		add(CheckUniqueCert, true, SeverityInfo, "no certificate presented")
	}

	// Internal address leaks.
	leak := rec.BannerIPPrivate || (rec.PASVMismatch && strings.HasPrefix(rec.PASVIP, "192.168."))
	add(CheckNoInternalLeak, !leak, SeverityWarning,
		pick(leak, "device leaks its RFC 1918 address (banner or PASV)", "no internal addresses leaked"))

	// Sensitive file visibility (only meaningful if anonymous).
	sensitive := countSensitive(rec)
	add(CheckNoSensitiveLeak, sensitive == 0, SeverityCritical,
		pick(sensitive > 0,
			fmt.Sprintf("%d sensitive-class files visible anonymously", sensitive),
			"no sensitive-class files visible"))

	report.Grade = grade(report.Results)
	return report, nil
}

// probeWrite attempts a STOR of a throwaway marker; on success the marker
// is deleted (the write-probe etiquette the paper observed).
func (a *Auditor) probeWrite(target string, timeout time.Duration) (bool, error) {
	c, err := a.login(target, "anonymous", "certify@example.org", timeout)
	if err != nil {
		return false, err
	}
	defer c.Close()
	r, err := c.Cmd("PASV", "")
	if err != nil || r.Code != ftp.CodePassive {
		return false, err
	}
	hp, err := ftp.ParsePASVReply(r.Text())
	if err != nil {
		return false, err
	}
	dialAddr := hp.Addr()
	if hp.IPString() != target {
		dialAddr = net.JoinHostPort(target, fmt.Sprintf("%d", hp.Port))
	}
	dc, err := a.Dialer.Dial("tcp", dialAddr)
	if err != nil {
		return false, err
	}
	defer dc.Close()
	const marker = "certify-probe.txt"
	if r, err := c.Cmd("STOR", marker); err != nil || !r.Preliminary() {
		return false, nil
	}
	dc.Write([]byte("certification write probe"))
	dc.Close()
	c.ReadReply()
	c.Cmd("DELE", marker)
	return true, nil
}

// probeDefaultCreds runs the default-account battery.
func (a *Auditor) probeDefaultCreds(target string, timeout time.Duration) (bool, [2]string) {
	for _, pair := range defaultCredentials {
		c, err := a.login(target, pair[0], pair[1], timeout)
		if err == nil {
			c.Close()
			return true, pair
		}
	}
	return false, [2]string{}
}

// login opens a control connection and authenticates.
func (a *Auditor) login(target, user, pass string, timeout time.Duration) (*ftp.Conn, error) {
	nc, err := a.Dialer.Dial("tcp", net.JoinHostPort(target, "21"))
	if err != nil {
		return nil, err
	}
	c := ftp.NewConn(nc)
	c.Timeout = timeout
	if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeReady {
		nc.Close()
		return nil, fmt.Errorf("certify: no banner")
	}
	if r, err := c.Cmd("USER", user); err != nil || (r.Code != ftp.CodeNeedPassword && r.Code != ftp.CodeLoggedIn) {
		nc.Close()
		return nil, fmt.Errorf("certify: USER rejected")
	} else if r.Code == ftp.CodeLoggedIn {
		return c, nil
	}
	if r, err := c.Cmd("PASS", pass); err != nil || r.Code != ftp.CodeLoggedIn {
		nc.Close()
		return nil, fmt.Errorf("certify: PASS rejected")
	}
	return c, nil
}

// countSensitive counts Table IX-class files in the record's listing.
func countSensitive(rec *dataset.HostRecord) int {
	n := 0
	for i := range rec.Files {
		name := strings.ToLower(rec.Files[i].Name)
		switch {
		case strings.HasSuffix(name, ".pst"), strings.HasSuffix(name, ".qdf"),
			strings.HasSuffix(name, ".txf"), strings.HasSuffix(name, ".kdbx"),
			strings.HasSuffix(name, ".ppk"), name == "shadow",
			strings.Contains(name, "ssh_host_") && !strings.HasSuffix(name, ".pub"),
			strings.HasSuffix(name, ".pem") && strings.Contains(name, "priv"):
			n++
		}
	}
	return n
}

// grade maps results to a letter grade: any critical failure → F; two or
// more warnings → C; one warning → B; clean → A.
func grade(results []Result) string {
	warnings := 0
	for _, r := range results {
		if r.Passed {
			continue
		}
		if r.Severity == SeverityCritical {
			return "F"
		}
		warnings++
	}
	switch {
	case warnings == 0:
		return "A"
	case warnings == 1:
		return "B"
	default:
		return "C"
	}
}

func pick(cond bool, ifTrue, ifFalse string) string {
	if cond {
		return ifTrue
	}
	return ifFalse
}

// Render formats a report.
func Render(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Certification report for %s — grade %s\n", r.Target, r.Grade)
	for _, res := range r.Results {
		mark := "PASS"
		if !res.Passed {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %-32s %-8s %s\n", mark, res.ID, res.Severity, res.Detail)
	}
	return b.String()
}
