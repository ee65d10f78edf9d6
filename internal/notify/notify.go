// Package notify implements the paper's disclosure step: "We are working
// to notify responsible entities in likely instances of sensitive
// information disclosure." It groups census findings by autonomous system
// and renders operator-facing notification reports, the way large
// measurement groups batch abuse notifications per network.
//
// Finding text deliberately names only categories and counts, never file
// paths — the paper declined to publish anything that would make retrieval
// trivial, and so does this generator.
package notify

import (
	"fmt"
	"sort"
	"strings"

	"ftpcloud/internal/asdb"
	"ftpcloud/internal/cvedb"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/simnet"
)

// Kind classifies a finding.
type Kind string

// Finding kinds.
const (
	KindSensitiveExposure Kind = "sensitive-exposure"
	KindWorldWritable     Kind = "world-writable"
	KindInfected          Kind = "infected"
	KindBounceVulnerable  Kind = "port-bounce"
	KindKnownCVE          Kind = "known-cve"
)

// Finding is one per-host issue worth notifying about.
type Finding struct {
	IP     string
	Kind   Kind
	Detail string
}

// Notice is the per-AS notification.
type Notice struct {
	ASNumber uint32
	ASName   string
	// Contact is the synthesized abuse address for the simulated AS.
	Contact  string
	Findings []Finding
}

// sensitiveClasses maps filename predicates to category labels; only
// category names ever appear in notices.
func sensitiveCategory(name string) string {
	lower := strings.ToLower(name)
	switch {
	case strings.HasSuffix(lower, ".pst"):
		return "email archives"
	case strings.HasSuffix(lower, ".qdf"), strings.HasSuffix(lower, ".txf"):
		return "financial records"
	case strings.HasSuffix(lower, ".kdbx"), strings.HasSuffix(lower, ".kdb"),
		strings.Contains(lower, "agilekeychain"):
		return "password databases"
	case strings.Contains(lower, "ssh_host_") && !strings.HasSuffix(lower, ".pub"),
		strings.HasSuffix(lower, ".ppk"),
		strings.HasSuffix(lower, ".pem") && strings.Contains(lower, "priv"):
		return "cryptographic key material"
	case lower == "shadow" || strings.HasPrefix(lower, "shadow."):
		return "system password files"
	default:
		return ""
	}
}

// Build derives notices from a census dataset — typically a finished JSONL
// ledger read back with dataset.ReadAll — resolving each host's AS in db.
// Hosts outside every AS in db get no notice: there is no one to tell.
func Build(records []*dataset.HostRecord, db *asdb.DB) []Notice {
	byAS := map[*asdb.AS][]Finding{}
	add := func(as *asdb.AS, f Finding) {
		if as == nil {
			return
		}
		byAS[as] = append(byAS[as], f)
	}

	for _, rec := range records {
		if !rec.FTP {
			continue
		}
		as := lookupAS(db, rec.IP)

		if rec.AnonymousOK {
			cats := map[string]int{}
			for i := range rec.Files {
				if rec.Files[i].IsDir {
					continue
				}
				if cat := sensitiveCategory(rec.Files[i].Name); cat != "" {
					cats[cat]++
				}
			}
			if len(cats) > 0 {
				var parts []string
				for _, cat := range sortedKeys(cats) {
					parts = append(parts, fmt.Sprintf("%s (%d files)", cat, cats[cat]))
				}
				add(as, Finding{IP: rec.IP, Kind: KindSensitiveExposure,
					Detail: "anonymous FTP exposes " + strings.Join(parts, ", ")})
			}
			if len(rec.WriteEvidence) > 0 {
				add(as, Finding{IP: rec.IP, Kind: KindWorldWritable,
					Detail: fmt.Sprintf("anonymous uploads enabled; %d known abuse-campaign artifacts present", len(rec.WriteEvidence))})
			}
			if rec.PortCheck == dataset.PortNotValidated {
				add(as, Finding{IP: rec.IP, Kind: KindBounceVulnerable,
					Detail: "server relays data connections to third parties (FTP bounce)"})
			}
		}

		c := fingerprint.Classify(rec)
		if matches := cvedb.Match(c.Software, c.Version); len(matches) > 0 {
			top := matches[0]
			for _, m := range matches[1:] {
				if m.CVSS > top.CVSS {
					top = m
				}
			}
			add(as, Finding{IP: rec.IP, Kind: KindKnownCVE,
				Detail: fmt.Sprintf("%s %s banner matches %s (CVSS %.1f)",
					c.Software, c.Version, top.ID, top.CVSS)})
		}
	}

	notices := make([]Notice, 0, len(byAS))
	for as, findings := range byAS {
		sort.Slice(findings, func(i, j int) bool {
			if findings[i].IP != findings[j].IP {
				return findings[i].IP < findings[j].IP
			}
			return findings[i].Kind < findings[j].Kind
		})
		notices = append(notices, Notice{
			ASNumber: as.Number,
			ASName:   as.Name,
			Contact:  fmt.Sprintf("abuse@as%d.example.net", as.Number),
			Findings: findings,
		})
	}
	sort.Slice(notices, func(i, j int) bool {
		if len(notices[i].Findings) != len(notices[j].Findings) {
			return len(notices[i].Findings) > len(notices[j].Findings)
		}
		return notices[i].ASNumber < notices[j].ASNumber
	})
	return notices
}

// Render formats one notice as an operator-facing report.
func Render(n Notice) string {
	var b strings.Builder
	fmt.Fprintf(&b, "To: %s\n", n.Contact)
	fmt.Fprintf(&b, "Subject: FTP security findings in AS%d (%s)\n\n", n.ASNumber, n.ASName)
	fmt.Fprintf(&b, "During a research survey of the FTP ecosystem we observed %d\n", len(n.Findings))
	fmt.Fprintf(&b, "issue(s) on hosts announced by your network. File paths are withheld;\n")
	fmt.Fprintf(&b, "please contact us to coordinate remediation details.\n\n")
	for _, f := range n.Findings {
		fmt.Fprintf(&b, "  %-15s [%s] %s\n", f.IP, f.Kind, f.Detail)
	}
	return b.String()
}

// lookupAS resolves a record's address in db, or nil.
func lookupAS(db *asdb.DB, ip string) *asdb.AS {
	addr, err := simnet.ParseIP(ip)
	if db == nil || err != nil {
		return nil
	}
	as, _ := db.Lookup(addr)
	return as
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
