package vfs

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleFS() *FS {
	root := NewDir("/", Perm755)
	pub := root.Add(NewDir("pub", Perm755))
	pub.Add(NewFile("index.html", Perm644, 1234))
	pub.Add(NewFile("secret.key", Perm600, 512))
	photos := pub.Add(NewDir("photos", Perm755))
	photos.Add(NewFile("DSC_0001.jpg", Perm644, 2_000_000))
	root.Add(NewDir("incoming", Perm777))
	return New(root)
}

func TestCleanAndJoin(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"", "/"},
		{"/", "/"},
		{"pub", "/pub"},
		{"/pub/", "/pub"},
		{"/pub/../etc", "/etc"},
		{"/../..", "/"},
		{"a/b/./c", "/a/b/c"},
		{"\\pub\\sub", "/pub/sub"},
		{"/pub//x", "/pub/x"},
	}
	for _, tt := range tests {
		if got := Clean(tt.in); got != tt.want {
			t.Errorf("Clean(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
	if got := Join("/pub", "photos"); got != "/pub/photos" {
		t.Errorf("Join = %q", got)
	}
	if got := Join("/pub", "/abs"); got != "/abs" {
		t.Errorf("Join abs = %q", got)
	}
	if got := Join("/pub", ".."); got != "/" {
		t.Errorf("Join .. = %q", got)
	}
}

// Property: Clean is idempotent, always absolute, and never contains "..".
func TestCleanProperties(t *testing.T) {
	f := func(raw string) bool {
		c := Clean(raw)
		return strings.HasPrefix(c, "/") &&
			Clean(c) == c &&
			!strings.Contains(c, "..") || !strings.ContainsAny(raw, "/\\")
	}
	// Restrict to path-ish strings for meaningful coverage.
	g := func(segs []uint8) bool {
		parts := make([]string, 0, len(segs))
		choices := []string{"a", "bb", ".", "..", "", "pub", "x y"}
		for _, s := range segs {
			parts = append(parts, choices[int(s)%len(choices)])
		}
		return f(strings.Join(parts, "/"))
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestLookup(t *testing.T) {
	fs := sampleFS()
	if n := fs.Lookup("/"); n == nil || !n.IsDir {
		t.Fatal("root lookup failed")
	}
	if n := fs.Lookup("/pub/photos/DSC_0001.jpg"); n == nil || n.Size != 2_000_000 {
		t.Fatal("deep lookup failed")
	}
	if n := fs.Lookup("/pub/../incoming"); n == nil {
		t.Fatal("dotdot lookup failed")
	}
	if fs.Lookup("/nope") != nil {
		t.Fatal("phantom lookup succeeded")
	}
	if fs.Lookup("/pub/index.html/deeper") != nil {
		t.Fatal("descending through file succeeded")
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	fs := sampleFS()
	if fs.Lookup("/PUB") != nil {
		t.Fatal("case-sensitive FS matched wrong case")
	}
	fs.CaseInsensitive = true
	if fs.Lookup("/PUB/Index.HTML") == nil {
		t.Fatal("case-insensitive lookup failed")
	}
}

func TestListErrors(t *testing.T) {
	fs := sampleFS()
	now := time.Now()
	if _, err := fs.Listing("/ghost", ListNames, now); err == nil {
		t.Error("Listing of missing path succeeded")
	}
	// Sorted order.
	names, err := fs.Listing("/pub", ListNames, now)
	if err != nil || string(names) != "index.html\r\nphotos\r\nsecret.key\r\n" {
		t.Errorf("Listing(/pub) = %q, %v", names, err)
	}
	// Listing a file yields the file itself (ls semantics).
	single, err := fs.Listing("/pub/index.html", ListNames, now)
	if err != nil || string(single) != "index.html\r\n" {
		t.Errorf("file listing: %q %v", single, err)
	}
	if _, err := fs.Listing("/pub", ListKind(-1), now); err == nil {
		t.Error("Listing of an unknown kind succeeded")
	}
}

func TestMkdirPutDelete(t *testing.T) {
	fs := sampleFS()
	if _, err := fs.Mkdir("/incoming/drop", Perm777); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if _, err := fs.Mkdir("/incoming/drop", Perm777); err == nil {
		t.Fatal("duplicate Mkdir succeeded")
	}
	if _, err := fs.Mkdir("/ghost/sub", Perm777); err == nil {
		t.Fatal("Mkdir under missing parent succeeded")
	}
	if _, err := fs.Put("/incoming/drop/w0000000t.txt", []byte("Anonymous"), Perm644, true); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if fs.Lookup("/incoming/drop/w0000000t.txt") == nil {
		t.Fatal("uploaded file missing")
	}
	if err := fs.Delete("/incoming/drop/w0000000t.txt"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := fs.Delete("/incoming/drop"); err != nil {
		t.Fatalf("Delete empty dir: %v", err)
	}
	if err := fs.Delete("/pub"); err == nil {
		t.Fatal("Delete non-empty dir succeeded")
	}
	if err := fs.Delete("/"); err == nil {
		t.Fatal("Delete root succeeded")
	}
	if err := fs.Delete("/nope"); err == nil {
		t.Fatal("Delete missing succeeded")
	}
}

// TestGenerationCountsMutations: each successful Mkdir, Put and Delete
// moves the generation by one; reads, listings and refused writes leave it.
func TestGenerationCountsMutations(t *testing.T) {
	fs := sampleFS()
	want := uint64(0)
	step := func(what string, changed bool) {
		t.Helper()
		if changed {
			want++
		}
		if got := fs.Generation(); got != want {
			t.Fatalf("after %s: generation %d, want %d", what, got, want)
		}
	}
	step("build", false)
	fs.Lookup("/pub/index.html")
	fs.Listing("/pub", ListUnix, time.Time{})
	step("reads", false)
	_, err := fs.Mkdir("/incoming/drop", Perm777)
	step("Mkdir", err == nil)
	_, err = fs.Mkdir("/incoming/drop", Perm777)
	step("duplicate Mkdir", err == nil)
	_, err = fs.Put("/incoming/drop/f", []byte("x"), Perm644, true)
	step("Put", err == nil)
	_, err = fs.PutUpload("/ghost/f", []byte("x"), Perm644, true, "ftp", true)
	step("PutUpload under a missing parent", err == nil)
	err = fs.Delete("/incoming/drop/f")
	step("Delete", err == nil)
	err = fs.Delete("/pub")
	step("Delete of a non-empty dir", err == nil)
	if want != 3 {
		t.Fatalf("%d mutations succeeded, want 3", want)
	}
}

func TestPutUploadRename(t *testing.T) {
	fs := sampleFS()
	for i := 0; i < 3; i++ {
		if _, err := fs.Put("/incoming/probe", []byte("x"), Perm644, false); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for _, name := range []string{"/incoming/probe", "/incoming/probe.1", "/incoming/probe.2"} {
		if fs.Lookup(name) == nil {
			t.Errorf("missing %s", name)
		}
	}
}

func TestPermissionBits(t *testing.T) {
	f := NewFile("x", Perm644, 1)
	if !f.OtherReadable() || f.OtherWritable() {
		t.Error("644 wrong")
	}
	s := NewFile("k", Perm600, 1)
	if s.OtherReadable() {
		t.Error("600 should not be other-readable")
	}
	d := NewDir("in", Perm777)
	if !d.OtherWritable() {
		t.Error("777 should be other-writable")
	}
}

func TestWalkAndTotalEntries(t *testing.T) {
	fs := sampleFS()
	var paths []string
	fs.Root().Walk("/", func(p string, n *Node) bool {
		paths = append(paths, p)
		return true
	})
	want := 7 // root, pub, index, secret, photos, dsc, incoming
	if len(paths) != want {
		t.Errorf("walked %d paths (%v), want %d", len(paths), paths, want)
	}
	if fs.TotalEntries() != want {
		t.Errorf("TotalEntries = %d", fs.TotalEntries())
	}
	// Pruned walk.
	count := 0
	fs.Root().Walk("/", func(p string, n *Node) bool {
		count++
		return p == "/" // descend only from root
	})
	if count != 3 { // root + its two children
		t.Errorf("pruned walk visited %d", count)
	}
}

func TestPermString(t *testing.T) {
	d := NewDir("pub", Perm755)
	if got := permString(d); got != "drwxr-xr-x" {
		t.Errorf("dir perm = %q", got)
	}
	f := NewFile("x", Perm644, 1)
	if got := permString(f); got != "-rw-r--r--" {
		t.Errorf("file perm = %q", got)
	}
	k := NewFile("k", Perm600, 1)
	if got := permString(k); got != "-rw-------" {
		t.Errorf("600 perm = %q", got)
	}
}

func TestFormatUnixLine(t *testing.T) {
	now := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	f := NewFile("report.pdf", Perm644, 102400)
	f.MTime = time.Date(2014, 3, 1, 10, 30, 0, 0, time.UTC)
	line := FormatUnixLine(f, now)
	for _, want := range []string{"-rw-r--r--", "ftp", "102400", "Mar  1  2014", "report.pdf"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	// Recent file gets time-of-day, not year.
	f.MTime = time.Date(2015, 6, 1, 10, 30, 0, 0, time.UTC)
	line = FormatUnixLine(f, now)
	if !strings.Contains(line, "10:30") || strings.Contains(line, " 2015") {
		t.Errorf("recent line = %q", line)
	}
}

func TestFormatDOSLine(t *testing.T) {
	now := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	d := NewDir("wwwroot", Perm755)
	d.MTime = time.Date(2015, 2, 14, 15, 4, 0, 0, time.UTC)
	line := FormatDOSLine(d, now)
	if !strings.Contains(line, "<DIR>") || !strings.Contains(line, "wwwroot") || !strings.Contains(line, "02-14-15") {
		t.Errorf("dir line = %q", line)
	}
	f := NewFile("data.mdb", Perm644, 4096)
	f.MTime = d.MTime
	line = FormatDOSLine(f, now)
	if strings.Contains(line, "<DIR>") || !strings.Contains(line, "4096") {
		t.Errorf("file line = %q", line)
	}
}

func TestFormatListingAndNameList(t *testing.T) {
	fs := sampleFS()
	entries := fs.Lookup("/pub").Children()
	now := time.Now()
	body := FormatListing(entries, StyleUnix, now)
	if strings.Count(body, "\r\n") != 3 {
		t.Errorf("unix listing lines: %q", body)
	}
	body = FormatListing(entries, StyleDOS, now)
	if !strings.Contains(body, "<DIR>") {
		t.Errorf("dos listing: %q", body)
	}
	names := FormatNameList(entries)
	if !strings.Contains(names, "index.html\r\n") {
		t.Errorf("name list: %q", names)
	}
}

func TestSynthContentDeterministic(t *testing.T) {
	a := SynthContent(42, 1024)
	b := SynthContent(42, 1024)
	c := SynthContent(43, 1024)
	if string(a) != string(b) {
		t.Error("same seed produced different content")
	}
	if string(a) == string(c) {
		t.Error("different seeds produced same content")
	}
	if len(a) != 1024 {
		t.Errorf("len = %d", len(a))
	}
}

func TestListStyleString(t *testing.T) {
	if StyleUnix.String() != "unix" || StyleDOS.String() != "dos" {
		t.Error("style names wrong")
	}
	if ListStyle(99).String() == "" {
		t.Error("unknown style should still render")
	}
}
