// Package honeypot implements §VIII's measurement apparatus: anonymous,
// world-writable FTP servers whose every interaction folds into a streaming
// accumulator as it happens, finalized into the paper's reported statistics
// (scanning IPs, FTP speakers, credential guesses, write probes, PORT-bounce
// attempts, exploit attempts, AUTH TLS fingerprinting).
package honeypot

import (
	"fmt"
	"strings"

	"ftpcloud/internal/simnet"
)

// Deployment is a fleet of live honeypots on a simulated network.
type Deployment struct {
	IPs []simnet.IP
	// Lures records each honeypot's lure strategy.
	Lures map[simnet.IP]LureStrategy
	// Acc is the streaming accumulator every honeypot folds into.
	Acc *Accumulator
}

// Summary is §VIII's statistics, finalized by Accumulator.Summary.
type Summary struct {
	// UniqueScanners counts distinct remote IPs that connected at all.
	UniqueScanners int
	// SpokeFTP counts remotes that issued at least one FTP command.
	SpokeFTP int
	// HTTPGet counts remotes that tried an HTTP GET against port 21.
	HTTPGet int
	// Traversed counts remotes that changed directories; Listed counts
	// remotes that requested listings.
	Traversed int
	Listed    int
	// CredentialPairs counts unique username:password combinations seen.
	CredentialPairs int
	// AnonymousLogins counts successful anonymous sessions.
	AnonymousLogins int
	// Uploads / Deletes count write activity (probe campaigns upload and
	// then delete their markers).
	Uploads int
	Deletes int
	// BounceAttempts counts PORT commands naming third parties;
	// BounceTargets the distinct third-party addresses named.
	BounceAttempts int
	BounceTargets  map[string]int
	// AuthTLS counts remotes that issued AUTH (certificate
	// fingerprinting per §VIII).
	AuthTLS int
	// CVEAttempts counts distinct remotes probing SITE CPFR/CPTO
	// (CVE-2015-3306; the paper observed one).
	CVEAttempts int
	// RootLogins counts distinct remotes attempting the Seagate
	// root/no-password exploit (the paper observed one).
	RootLogins int
	// MkdirOnly counts remotes that created directories without
	// uploading — the WaReZ-transport signature.
	MkdirOnly int
	// TopSourcePrefix reports the /8 with the most scanners and its
	// share (the paper's "over 30% from China Unicom Henan" analogue).
	TopSourcePrefix      string
	TopSourcePrefixShare float64
}

// Render formats the summary as a §VIII-style report.
func Render(s Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section VIII — Honeypot study\n")
	fmt.Fprintf(&b, "  unique scanning IPs:      %d\n", s.UniqueScanners)
	fmt.Fprintf(&b, "  top source prefix:        %s (%.1f%%)\n", s.TopSourcePrefix, s.TopSourcePrefixShare)
	fmt.Fprintf(&b, "  spoke FTP:                %d\n", s.SpokeFTP)
	fmt.Fprintf(&b, "  HTTP GET on port 21:      %d\n", s.HTTPGet)
	fmt.Fprintf(&b, "  traversed directories:    %d\n", s.Traversed)
	fmt.Fprintf(&b, "  listed directories:       %d\n", s.Listed)
	fmt.Fprintf(&b, "  credential pairs tried:   %d\n", s.CredentialPairs)
	fmt.Fprintf(&b, "  anonymous logins:         %d\n", s.AnonymousLogins)
	fmt.Fprintf(&b, "  uploads / deletes:        %d / %d\n", s.Uploads, s.Deletes)
	fmt.Fprintf(&b, "  PORT bounce attempts:     %d toward %d distinct targets\n",
		s.BounceAttempts, len(s.BounceTargets))
	fmt.Fprintf(&b, "  AUTH TLS fingerprinting:  %d\n", s.AuthTLS)
	fmt.Fprintf(&b, "  CVE-2015-3306 attempts:   %d\n", s.CVEAttempts)
	fmt.Fprintf(&b, "  root/no-password logins:  %d\n", s.RootLogins)
	fmt.Fprintf(&b, "  mkdir-without-upload:     %d\n", s.MkdirOnly)
	return b.String()
}
