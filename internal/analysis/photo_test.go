package analysis

import (
	"regexp"
	"strings"
	"testing"
)

// TestIsPhotoNameMatchesRegexp pins the photo-name scanner to the regexp it
// replaced over every prefix × separator × digit count × extension, in
// upper, lower and mixed case, plus near misses.
func TestIsPhotoNameMatchesRegexp(t *testing.T) {
	re := regexp.MustCompile(`^(?i)(DSC|DSCN|IMG|IMGP|P|PICT)[-_]?\d{3,}\.(jpe?g)$`)
	var names []string
	for _, p := range []string{"DSC", "DSCN", "IMG", "IMGP", "P", "PICT", "", "D", "DS", "IM", "PIC", "PICTS", "DSCNX", "XDSC", "DſC", "dſcn", "ſ"} {
		for _, sep := range []string{"", "-", "_", "--", " ", "."} {
			for _, digits := range []string{"", "1", "12", "123", "0001", "12a3"} {
				for _, ext := range []string{".jpg", ".jpeg", ".JPG", ".JpEg", ".jpe", ".jpgx", ".png", "jpg", "", ".jpg.bak"} {
					name := p + sep + digits + ext
					names = append(names, name, strings.ToLower(name), strings.ToUpper(name))
				}
			}
		}
	}
	for _, n := range names {
		if got, want := isPhotoName(n), re.MatchString(n); got != want {
			t.Errorf("isPhotoName(%q) = %v, regexp gives %v", n, got, want)
		}
	}
}
