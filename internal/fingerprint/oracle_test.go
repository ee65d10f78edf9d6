package fingerprint

import (
	"regexp"
	"strings"
	"testing"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/personality"
)

// The version-extraction regexps softwareVersion replaced. They are the
// oracle the hand scanner must agree with.
var (
	reProFTPD   = regexp.MustCompile(`ProFTPD (\d[\w.]*)`)
	reNASFTPD   = regexp.MustCompile(`NASFTPD Turbo station (\d[\w.]*)`)
	rePureFTPd  = regexp.MustCompile(`Pure-FTPd (\d[\w.]*)`)
	reVsftpd    = regexp.MustCompile(`\(vsFTPd (\d[\w.]*)\)`)
	reFileZilla = regexp.MustCompile(`FileZilla Server version (\d[\w.]*)`)
	reServU     = regexp.MustCompile(`Serv-U FTP Server v(\d[\w.]*)`)
	reWuFTPd    = regexp.MustCompile(`Version wu-(\d[\w.-]*)`)
)

// refSoftwareVersion is softwareVersion as the regexps computed it.
func refSoftwareVersion(banner string) (software, version string) {
	if m := reNASFTPD.FindStringSubmatch(banner); m != nil {
		return "ProFTPD", m[1]
	}
	if m := reProFTPD.FindStringSubmatch(banner); m != nil {
		return "ProFTPD", m[1]
	}
	if m := rePureFTPd.FindStringSubmatch(banner); m != nil {
		return "Pure-FTPd", m[1]
	}
	if strings.Contains(banner, "Pure-FTPd") {
		return "Pure-FTPd", ""
	}
	if m := reVsftpd.FindStringSubmatch(banner); m != nil {
		return "vsFTPd", m[1]
	}
	if m := reFileZilla.FindStringSubmatch(banner); m != nil {
		return "FileZilla Server", m[1]
	}
	if m := reServU.FindStringSubmatch(banner); m != nil {
		return "Serv-U", m[1]
	}
	if m := reWuFTPd.FindStringSubmatch(banner); m != nil {
		return "wu-ftpd", strings.TrimSuffix(m[1], "-5")
	}
	if strings.Contains(banner, "Microsoft FTP Service") {
		return "Microsoft FTP Service", ""
	}
	return "", ""
}

// refMatchDevice is the ordered strings.Contains loop matchDevice replaced.
func refMatchDevice(banner string) int {
	for i, dp := range devicePatterns {
		if strings.Contains(banner, dp.substr) {
			return i
		}
	}
	return -1
}

// oracleBanners is every personality banner plus hand-made edge cases: two
// device markers in either order, a marker repeated, version runs that stop
// at a byte the regexp excludes, prefixes not followed by a digit before
// one that is, and invalid UTF-8.
func oracleBanners() []string {
	var bs []string
	for _, p := range personality.All() {
		bs = append(bs, p.ExpandBanner("192.0.2.1", "h.example.net"))
	}
	for _, dp := range devicePatterns {
		bs = append(bs, dp.substr, "x"+dp.substr[:len(dp.substr)-1])
	}
	return append(bs,
		"Welcome to Linksys on a FRITZ!Box",
		"FRITZ!Box behind Linksys",
		"AXIS and ASUS RT-N12 and NASFTPD Turbo station 1.3.1e",
		"Xerox Xerox Lexmark",
		"ProFTPD x ProFTPD 1.3.5rc4_x.y-z Server",
		"ProFTPD 1.3.5",
		"ProFTPD ",
		"(vsFTPd 2.3.2 (vsFTPd 3.0.2)",
		"(vsFTPd 3.0.2",
		"(vsFTPd 3.0.2-x)",
		"Version wu-2.6.2-5) ready",
		"Version wu-2.6.2-5-5",
		"Version wu-x Version wu-2.4",
		"Pure-FTPd [privsep] Pure-FTPd 1.0.29",
		"FileZilla Server version 0.9.41\xff beta",
		"Serv-U FTP Server v\xc36.4 Serv-U FTP Server v15.0",
		"NASFTPD Turbo station 1é Server (ProFTPD 1.3.1)",
		"RMNetwork FTP",
		"Microsoft FTP Service",
		"",
	)
}

// TestSoftwareVersionMatchesRegexps pins the hand scanner to the regexps.
func TestSoftwareVersionMatchesRegexps(t *testing.T) {
	for _, b := range oracleBanners() {
		sw, v := softwareVersion(b)
		rsw, rv := refSoftwareVersion(b)
		if sw != rsw || v != rv {
			t.Errorf("softwareVersion(%q) = %q/%q, regexps give %q/%q", b, sw, v, rsw, rv)
		}
	}
}

// TestMatchDeviceMatchesOrderedLoop: the one-pass device match picks the
// pattern the ordered Contains loop picks, for every personality banner and
// for banners carrying two markers.
func TestMatchDeviceMatchesOrderedLoop(t *testing.T) {
	for _, b := range oracleBanners() {
		if got, want := matchDevice(b), refMatchDevice(b); got != want {
			t.Errorf("matchDevice(%q) = %d, ordered loop gives %d", b, got, want)
		}
	}
	// Every ordered pair of markers, in both orders in one banner.
	for i, a := range devicePatterns {
		for j, b := range devicePatterns {
			banner := "x " + a.substr + " y " + b.substr
			if got, want := matchDevice(banner), refMatchDevice(banner); got != want {
				t.Errorf("markers %d then %d: matchDevice = %d, ordered loop gives %d", i, j, got, want)
			}
		}
	}
}

func FuzzSoftwareVersion(f *testing.F) {
	for _, b := range oracleBanners() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, banner string) {
		sw, v := softwareVersion(banner)
		rsw, rv := refSoftwareVersion(banner)
		if sw != rsw || v != rv {
			t.Errorf("softwareVersion(%q) = %q/%q, regexps give %q/%q", banner, sw, v, rsw, rv)
		}
		if got, want := matchDevice(banner), refMatchDevice(banner); got != want {
			t.Errorf("matchDevice(%q) = %d, ordered loop gives %d", banner, got, want)
		}
	})
}

// BenchmarkClassify prices one banner classification over the personality
// banners; the per-record path should not allocate.
func BenchmarkClassify(b *testing.B) {
	var recs []*dataset.HostRecord
	for _, banner := range oracleBanners() {
		recs = append(recs, rec(banner))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classified = Classify(recs[i%len(recs)])
	}
}

// classified keeps BenchmarkClassify's result live.
var classified Classification
