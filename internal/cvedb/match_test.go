package cvedb

import (
	"reflect"
	"strings"
	"testing"

	"ftpcloud/internal/personality"
)

// refMatch is the per-call matcher Match replaced: it rebuilds the database
// and re-tokenizes both bounds for every candidate. It is the oracle the
// table-driven Match must agree with.
func refMatch(software, version string) []CVE {
	if software == "" || version == "" {
		return nil
	}
	var out []CVE
	for _, c := range Database() {
		if !strings.EqualFold(c.Software, software) {
			continue
		}
		if refCompare(version, c.AffectedMax) > 0 {
			continue
		}
		if c.AffectedMin != "" && refCompare(version, c.AffectedMin) < 0 {
			continue
		}
		out = append(out, c)
	}
	return out
}

// refCompare is the old CompareVersions: tokens lower-cased with
// strings.ToLower and compared with strings.Compare.
func refCompare(a, b string) int {
	ta, tb := refTokenize(a), refTokenize(b)
	for i := 0; i < len(ta) || i < len(tb); i++ {
		var x, y refToken
		if i < len(ta) {
			x = ta[i]
		}
		if i < len(tb) {
			y = tb[i]
		}
		if c := x.compare(y); c != 0 {
			return c
		}
	}
	return 0
}

// refToken is the old segment type, with its explicit presence flag.
type refToken struct {
	present bool
	numeric bool
	num     int64
	str     string
}

func (t refToken) compare(o refToken) int {
	switch {
	case !t.present && !o.present:
		return 0
	case !t.present:
		return -1
	case !o.present:
		return 1
	}
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
	return strings.Compare(t.str, o.str)
}

func refTokenize(v string) []refToken {
	var out []refToken
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
			out = append(out, refToken{present: true, numeric: true, num: n})
			i = j
		case isLetter(c):
			j := i
			for j < len(v) && isLetter(v[j]) {
				j++
			}
			out = append(out, refToken{present: true, str: strings.ToLower(v[i:j])})
			i = j
		default:
			i++
		}
	}
	return out
}

// matchVersions is every version string a census can hand Match: each
// personality's advertised version, each database bound, and case and
// separator variants of them.
func matchVersions() []string {
	var vs []string
	for _, p := range personality.All() {
		vs = append(vs, p.Version)
	}
	for _, c := range tableXI {
		vs = append(vs, c.AffectedMax, c.AffectedMin)
	}
	for _, v := range append([]string(nil), vs...) {
		vs = append(vs, strings.ToUpper(v), strings.ReplaceAll(v, ".", "-"), v+"rc1", v+".0")
	}
	return append(vs, "1.3.4C", "1.3.10", "01.3.5", "1..3.5", "v1.3.5", "1.3.5.ProFTPD", "999999999999999999")
}

// TestMatchEqualsPerCallMatch pins Match to the matcher it replaced over
// every personality version × every database entry's software.
func TestMatchEqualsPerCallMatch(t *testing.T) {
	softwares := []string{"", "proftpd", "PURE-FTPD", "wu-ftpd", "FileZilla Server"}
	for _, c := range tableXI {
		softwares = append(softwares, c.Software)
	}
	for _, sw := range softwares {
		for _, v := range matchVersions() {
			got, want := Match(sw, v), refMatch(sw, v)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Match(%q, %q) = %v, want %v", sw, v, got, want)
			}
			for _, c := range tableXI {
				for _, bound := range []string{c.AffectedMax, c.AffectedMin} {
					if got, want := CompareVersions(v, bound), refCompare(v, bound); got != want {
						t.Errorf("CompareVersions(%q, %q) = %d, want %d", v, bound, got, want)
					}
				}
			}
		}
	}
}

// TestDatabaseCopyIsolated: the slice Database returns is the caller's;
// mutating it must not reach Match or a later Database call.
func TestDatabaseCopyIsolated(t *testing.T) {
	want := Match("ProFTPD", "1.3.5")
	db := Database()
	for i := range db {
		db[i].Software = "ProFTPD"
		db[i].AffectedMax = "0"
		db[i].AffectedMin = ""
		db[i].ID = "mutated"
	}
	if got := Match("ProFTPD", "1.3.5"); !reflect.DeepEqual(got, want) {
		t.Errorf("Match after mutating Database(): %v, want %v", got, want)
	}
	if got := Match("vsFTPd", "2.3.2"); len(got) != 2 {
		t.Errorf("vsFTPd 2.3.2 after mutating Database(): %v", got)
	}
	if again := Database(); again[0].ID != "CVE-2015-3306" {
		t.Errorf("Database() returned the mutated slice: %+v", again[0])
	}
	// Match's result is the caller's too.
	m := Match("ProFTPD", "1.3.5")
	m[0].ID = "mutated"
	if Match("ProFTPD", "1.3.5")[0].ID != "CVE-2015-3306" {
		t.Error("mutating a Match result reached the table")
	}
}

// TestMatchAllocations: a miss allocates nothing; a hit allocates only the
// returned slice.
func TestMatchAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Match("ProFTPD", "1.3.6") }); n != 0 {
		t.Errorf("Match miss: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Match("ProFTPD", "1.3.5") }); n > 1 {
		t.Errorf("Match hit: %v allocs, want at most 1", n)
	}
}
