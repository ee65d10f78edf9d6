// Package cvedb holds the known-vulnerability database the paper matches
// against FTP banner version strings (Table XI), plus the version
// comparison machinery that matching requires. Extracting the software and
// version from a banner is internal/fingerprint's job.
//
// As in the paper, matching is purely banner-based: no exploitation is ever
// attempted; a host "matches" a CVE when its advertised implementation and
// version fall inside the vulnerable range.
package cvedb

import (
	"strings"
)

// CVE is one known vulnerability affecting an FTP implementation.
type CVE struct {
	ID       string
	Software string
	CVSS     float64
	// Description summarizes the flaw.
	Description string
	// AffectedMax is the highest vulnerable version (inclusive).
	AffectedMax string
	// AffectedMin, when non-empty, is the lowest vulnerable version
	// (inclusive); empty means all versions up to AffectedMax.
	AffectedMin string
}

// tableXI is the CVE set from the paper's Table XI.
var tableXI = []CVE{
	{
		ID: "CVE-2015-3306", Software: "ProFTPD", CVSS: 10.0,
		Description: "mod_copy unauthenticated SITE CPFR/CPTO file read/write",
		AffectedMin: "1.3.5", AffectedMax: "1.3.5",
	},
	{
		ID: "CVE-2013-4359", Software: "ProFTPD", CVSS: 5.0,
		Description: "mod_sftp/mod_sftp_pam integer overflow denial of service",
		AffectedMin: "1.3.4", AffectedMax: "1.3.4c",
	},
	{
		ID: "CVE-2012-6095", Software: "ProFTPD", CVSS: 1.2,
		Description: "MKD/symlink race allows group-permission escalation",
		AffectedMax: "1.3.4b",
	},
	{
		ID: "CVE-2011-4130", Software: "ProFTPD", CVSS: 9.0,
		Description: "Response pool use-after-free allows remote code execution",
		AffectedMax: "1.3.3f",
	},
	{
		ID: "CVE-2011-1137", Software: "ProFTPD", CVSS: 5.0,
		Description: "mod_sftp malformed SSH message denial of service",
		AffectedMax: "1.3.3d",
	},
	{
		ID: "CVE-2011-1575", Software: "Pure-FTPd", CVSS: 5.8,
		Description: "STARTTLS command injection into the TLS session",
		AffectedMax: "1.0.29",
	},
	{
		ID: "CVE-2011-0418", Software: "Pure-FTPd", CVSS: 4.0,
		Description: "glob_() resource exhaustion denial of service",
		AffectedMax: "1.0.31",
	},
	{
		ID: "CVE-2015-1419", Software: "vsFTPd", CVSS: 5.0,
		Description: "deny_file filtering bypass via unspecified vectors",
		AffectedMax: "3.0.2",
	},
	{
		ID: "CVE-2011-0762", Software: "vsFTPd", CVSS: 4.0,
		Description: "vsf_filename_passes_filter glob denial of service",
		AffectedMax: "2.3.2",
	},
	{
		ID: "CVE-2011-4800", Software: "Serv-U", CVSS: 9.0,
		Description: "Directory traversal allows arbitrary file access",
		AffectedMax: "11.1.0.2",
	},
}

// entry is one tableXI row with its version bounds tokenized once.
type entry struct {
	CVE
	max, min []token
}

// entries is tableXI ready for matching: Match runs once per classified
// host, so nothing it compares against is rebuilt per call.
var entries = func() []entry {
	out := make([]entry, len(tableXI))
	for i, c := range tableXI {
		out[i] = entry{CVE: c, max: tokenize(nil, c.AffectedMax), min: tokenize(nil, c.AffectedMin)}
	}
	return out
}()

// Database returns the CVE set from the paper's Table XI. The returned slice
// is freshly allocated each call.
func Database() []CVE {
	return append([]CVE(nil), tableXI...)
}

// Match returns every CVE whose software and version range cover the given
// implementation. Software names compare case-insensitively. It allocates
// only the returned slice, and only when something matches.
func Match(software, version string) []CVE {
	if software == "" || version == "" {
		return nil
	}
	var buf [8]token
	var v []token
	var out []CVE
	for i := range entries {
		e := &entries[i]
		if !strings.EqualFold(e.Software, software) {
			continue
		}
		if v == nil {
			v = tokenize(buf[:0], version)
		}
		if compareTokens(v, e.max) > 0 {
			continue
		}
		if e.AffectedMin != "" && compareTokens(v, e.min) < 0 {
			continue
		}
		out = append(out, e.CVE)
	}
	return out
}

// CompareVersions orders dotted, letter-suffixed version strings the way
// FTP implementations use them: "1.3.4a" < "1.3.4b" < "1.3.5" and
// "1.3.5" < "1.3.10". Numeric segments compare numerically, alphabetic
// suffixes lexicographically (ignoring ASCII case), and a missing segment
// sorts before any present one ("1.3.4" < "1.3.4a").
func CompareVersions(a, b string) int {
	var ba, bb [8]token
	return compareTokens(tokenize(ba[:0], a), tokenize(bb[:0], b))
}

// compareTokens compares two tokenized versions segment by segment; a
// missing segment sorts before any present one.
func compareTokens(ta, tb []token) int {
	for i := 0; i < len(ta) || i < len(tb); i++ {
		switch {
		case i >= len(ta):
			return -1
		case i >= len(tb):
			return 1
		}
		if c := ta[i].compare(&tb[i]); c != 0 {
			return c
		}
	}
	return 0
}

// token is one version segment: numeric or alphabetic. An alphabetic
// segment keeps its original case; compare folds it.
type token struct {
	numeric bool
	num     int64
	str     string
}

func (t *token) compare(o *token) int {
	// Numeric sorts before alphabetic when kinds differ (rare; keeps
	// ordering total).
	if t.numeric != o.numeric {
		if t.numeric {
			return -1
		}
		return 1
	}
	if t.numeric {
		switch {
		case t.num < o.num:
			return -1
		case t.num > o.num:
			return 1
		default:
			return 0
		}
	}
	return compareFold(t.str, o.str)
}

// compareFold is strings.Compare of the lower-cased ASCII letter runs a and
// b, without building them.
func compareFold(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := lower(a[i]), lower(b[i])
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// tokenize appends the segments of v to dst: "1.3.4a" gives [1 3 4 a].
// '.', '-', '_' and any other non-alphanumeric byte separate segments, as
// do digit/letter boundaries.
func tokenize(dst []token, v string) []token {
	i := 0
	for i < len(v) {
		c := v[i]
		switch {
		case c >= '0' && c <= '9':
			j := i
			var n int64
			for j < len(v) && v[j] >= '0' && v[j] <= '9' {
				n = n*10 + int64(v[j]-'0')
				j++
			}
			dst = append(dst, token{numeric: true, num: n})
			i = j
		case isLetter(c):
			j := i
			for j < len(v) && isLetter(v[j]) {
				j++
			}
			dst = append(dst, token{str: v[i:j]})
			i = j
		default:
			i++
		}
	}
	return dst
}

func isLetter(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

// HighestCVSS returns the maximum CVSS score among the matches, or 0.
func HighestCVSS(matches []CVE) float64 {
	var top float64
	for _, m := range matches {
		if m.CVSS > top {
			top = m.CVSS
		}
	}
	return top
}
