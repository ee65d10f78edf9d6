package campaigns

import (
	"reflect"
	"regexp"
	"testing"
)

// refDetect is the catalog scan DetectFilename replaced.
func refDetect(name string) []string {
	var keys []string
	for _, c := range All() {
		for _, a := range c.Artifacts {
			if a.Name == name {
				keys = append(keys, c.Key)
				break
			}
		}
	}
	return keys
}

// TestFilenameIndexMatchesCatalogScan pins the filename index to a scan
// of the catalog for every artifact name and a few misses, and checks that
// a hit hands back a slice the caller owns.
func TestFilenameIndexMatchesCatalogScan(t *testing.T) {
	names := []string{"", "readme.txt", "FTPCHK3.PHP", "w0000000t"}
	for _, c := range All() {
		for _, a := range c.Artifacts {
			names = append(names, a.Name)
		}
	}
	for _, n := range names {
		if got, want := DetectFilename(n), refDetect(n); !reflect.DeepEqual(got, want) {
			t.Errorf("DetectFilename(%q) = %v, want %v", n, got, want)
		}
	}
	hit := DetectFilename("ftpchk3.php")
	hit[0] = "mutated"
	if got := DetectFilename("ftpchk3.php"); got[0] != KeyFtpchk3 {
		t.Errorf("mutating a result reached the index: %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { DetectFilename("readme.txt") }); n != 0 {
		t.Errorf("DetectFilename miss: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { AttributeUpload("sh3ll.php") }); n != 0 {
		t.Errorf("AttributeUpload: %v allocs, want 0", n)
	}
}

// TestIsWaReZDirMatchesRegexp pins the hand matcher to the regexp it
// replaced, on names one edit away from the signature.
func TestIsWaReZDirMatchesRegexp(t *testing.T) {
	re := regexp.MustCompile(`^\d{12}p$`)
	base := "150618120000p"
	names := []string{base, "", "p", base + "\n", "\n" + base, "１50618120000p"}
	for i := 0; i <= len(base); i++ {
		for _, c := range []string{"", "0", "9", "p", "P", "a", "/", "٣"} {
			names = append(names, base[:i]+c+base[i:])
			if i < len(base) {
				names = append(names, base[:i]+c+base[i+1:])
			}
		}
	}
	for _, n := range names {
		if got, want := IsWaReZDir(n), re.MatchString(n); got != want {
			t.Errorf("IsWaReZDir(%q) = %v, regexp gives %v", n, got, want)
		}
	}
}
