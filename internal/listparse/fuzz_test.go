package listparse

import (
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/vfs"
)

// FuzzParseLine hammers the listing parser with arbitrary bytes: it must
// never panic and must uphold basic invariants on success — the enumerator
// feeds it raw data from adversarial servers.
func FuzzParseLine(f *testing.F) {
	seeds := []string{
		"-rw-r--r--   1 ftp      ftp          1024 Mar  1  2014 report.pdf",
		"drwxrwxrwx   5 root     wheel        4096 Jun 10 09:15 incoming",
		"lrwxrwxrwx   1 ftp ftp 11 Jun  1 08:00 www -> public_html",
		"06-18-15  03:24PM       <DIR>          wwwroot",
		"02-14-15  09:01AM                 4096 Data Base.mdb",
		"total 123",
		"",
		"-rw-r--r-- 1 ftp ftp 99999999999999999999 Jun 1 08:00 big",
		"-rw-r--r-- 1 ftp ftp 10 Jun 99 08:00 f",
		"\x00\x01\x02\x03",
		strings.Repeat("-", 100),
		"-rw-r--r-- 1 a b 1 Jun 1 08:00 " + strings.Repeat("n", 300),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	now := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseLine(line, now)
		if err != nil {
			return
		}
		if e.Name == "" {
			t.Errorf("parsed entry with empty name from %q", line)
		}
		if e.Size < 0 {
			t.Errorf("negative size %d from %q", e.Size, line)
		}
		if e.Read != ReadYes && e.Read != ReadNo && e.Read != ReadUnknown {
			t.Errorf("invalid readability %v from %q", e.Read, line)
		}
	})
}

// FuzzParseListing exercises the multi-line path with embedded noise.
func FuzzParseListing(f *testing.F) {
	f.Add("total 1\r\n-rw-r--r-- 1 a b 1 Jun 1 08:00 x\r\n")
	f.Add("garbage\nmore garbage\n")
	f.Add("\r\n\r\n\r\n")
	now := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, body string) {
		entries, skipped := ParseListing(body, now)
		if skipped < 0 {
			t.Error("negative skip count")
		}
		for _, e := range entries {
			if e.Name == "" || e.Name == "." || e.Name == ".." {
				t.Errorf("bad entry name %q", e.Name)
			}
		}
	})
}

// FuzzParseMLSDLine feeds MLSD lines, as a hostile server may send them,
// to the parser, which must not panic; and it renders a node built from
// the fuzzed fields with vfs.AppendMLSDLine, the line a served host sends,
// which must parse back to the node's name, type and size.
func FuzzParseMLSDLine(f *testing.F) {
	f.Add("type=file;size=1024;modify=20150601120000;UNIX.mode=0644;UNIX.owner=ftp; report.pdf", "report.pdf", "ftp", int64(1024), false, uint16(0o644))
	f.Add("type=dir;size=4096;modify=20150601120000;UNIX.mode=0755;UNIX.owner=root; pub", "pub", "root", int64(0), true, uint16(0o755))
	f.Add("type=cdir; .", "a; b", "", int64(0), false, uint16(0))
	f.Add("size=-1; x", " spaced name ", "o=w=n", int64(1<<62), false, uint16(0o7777))
	f.Add("Type=OS.unix=symlink;unix.mode=9; link", "=;=", "x", int64(7), true, uint16(0o1))
	f.Add("noseparator", "", "", int64(-3), false, uint16(0))
	mtime := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, line, name, owner string, size int64, isDir bool, perm uint16) {
		if e, err := ParseMLSDLine(line); err == nil && e.Size < 0 {
			t.Errorf("negative size %d from %q", e.Size, line)
		}

		// A served node's fields: a name on one line, an owner with no
		// fact separator, a size that is not negative.
		if name == "" || strings.ContainsAny(name, "\r\n") || strings.ContainsAny(owner, ";\r\n") || size < 0 {
			return
		}
		n := &vfs.Node{Name: name, IsDir: isDir, Perm: vfs.Mode(perm), Owner: owner, Size: size, MTime: mtime}
		rendered := string(vfs.AppendMLSDLine(nil, n, mtime))
		e, err := ParseMLSDLine(rendered)
		if err != nil {
			t.Fatalf("rendered line %q does not parse: %v", rendered, err)
		}
		wantSize := size
		if isDir {
			wantSize = 4096
		}
		if e.Name != name || e.IsDir != isDir || e.Size != wantSize {
			t.Errorf("rendered %q parses to name %q dir %v size %d, want %q %v %d", rendered, e.Name, e.IsDir, e.Size, name, isDir, wantSize)
		}
		if !e.ModTime.Equal(mtime) {
			t.Errorf("rendered %q parses to mtime %v, want %v", rendered, e.ModTime, mtime)
		}
	})
}
