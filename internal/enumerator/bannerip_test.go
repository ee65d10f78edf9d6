package enumerator

import (
	"regexp"
	"testing"

	"ftpcloud/internal/personality"
)

// refBannerIP is the regexp bannerIP replaced; it stays as the oracle.
var refBannerIP = regexp.MustCompile(`\b(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})\b`)

// bannerIPCases are banners chosen at the scanner's edges: word boundaries
// on each side, over-long and empty runs, a later quad after a failed
// earlier one, non-ASCII neighbours and invalid UTF-8.
var bannerIPCases = []string{
	"",
	"220 ProFTPD 1.3.5 Server (ProFTPD Default Installation) [192.168.1.77]",
	"220 (vsFTPd 3.0.2)",
	"1.2.3.4",
	"1.2.3.4.5",
	"1.2.3",
	"1.2.3.",
	".1.2.3.4",
	"a1.2.3.4",
	"_1.2.3.4",
	"1.2.3.4a",
	"1.2.3.4_",
	"1.2.3.4-",
	"1234.1.2.3.4",
	"1.2.3.4567 then 10.0.0.1",
	"999.999.999.999",
	"0.0.0.0:21",
	"01.002.3.4",
	"1..2.3.4 5.6.7.8",
	"x 1.2.3.4é",
	"é1.2.3.4",
	"\xff1.2.3.4\xfe",
	"1.2.3.\xff4",
	"１.2.3.4 ۱.2.3.4 9.8.7.6",
	"v1.2.3.4b 5.6.7.8",
	"host-10.1.2.3.example.net",
	"1.2.3.4\r\n5.6.7.8",
}

func checkBannerIP(t *testing.T, banner string) {
	t.Helper()
	if got, want := bannerIP(banner), refBannerIP.FindString(banner); got != want {
		t.Errorf("bannerIP(%q) = %q, regexp finds %q", banner, got, want)
	}
}

// TestBannerIPMatchesRegexp pins the hand scanner to the regexp over the
// edge cases and every personality's banner.
func TestBannerIPMatchesRegexp(t *testing.T) {
	for _, b := range bannerIPCases {
		checkBannerIP(t, b)
	}
	for _, p := range personality.All() {
		for _, b := range []string{p.Banner, p.ExpandBanner("10.0.0.7", "ftp.example.net"), p.ExpandBanner("192.168.001.254", "10.1.2.3")} {
			checkBannerIP(t, b)
		}
	}
}

func FuzzBannerIP(f *testing.F) {
	for _, b := range bannerIPCases {
		f.Add(b)
	}
	f.Fuzz(checkBannerIP)
}
