package vfs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// referenceUnixLine is the straightforward ls -l renderer AppendUnixLine
// replaced: strconv for the integers, a bit loop for the mode and
// time.AppendFormat for the date. It is the oracle the equivalence tests
// compare the hand-rendered fields against, byte for byte.
func referenceUnixLine(dst []byte, n *Node, now time.Time) []byte {
	kind := byte('-')
	if n.IsDir {
		kind = 'd'
	}
	if n.LinkTarget != "" {
		kind = 'l'
	}
	dst = append(dst, kind)
	const bits = "rwxrwxrwx"
	for i := 0; i < 9; i++ {
		if n.Perm&(1<<(8-i)) != 0 {
			dst = append(dst, bits[i])
		} else {
			dst = append(dst, '-')
		}
	}
	padInt := func(dst []byte, v int64, w int) []byte {
		num := strconv.AppendInt(nil, v, 10)
		for pad := w - len(num); pad > 0; pad-- {
			dst = append(dst, ' ')
		}
		return append(dst, num...)
	}
	links := 1
	if n.IsDir {
		links = 2 + n.CountChildren()
	}
	size := n.Size
	if n.IsDir {
		size = 4096
	}
	dst = append(dst, ' ')
	dst = padInt(dst, int64(links), 3)
	dst = append(dst, ' ')
	dst = appendPadRight(dst, n.Owner, 8)
	dst = append(dst, ' ')
	dst = appendPadRight(dst, n.Group, 8)
	dst = append(dst, ' ')
	dst = padInt(dst, size, 12)
	dst = append(dst, ' ')
	t := listDate(n.MTime, now)
	if d := now.Sub(t); d < 180*24*time.Hour && d > -180*24*time.Hour {
		dst = t.AppendFormat(dst, "Jan _2 15:04")
	} else {
		dst = t.AppendFormat(dst, "Jan _2  2006")
	}
	dst = append(dst, ' ')
	dst = append(dst, n.Name...)
	if n.LinkTarget != "" {
		dst = append(dst, " -> "...)
		dst = append(dst, n.LinkTarget...)
	}
	return dst
}

// checkUnixLine fails t when AppendUnixLine and the reference disagree.
func checkUnixLine(t testing.TB, n *Node, now time.Time) {
	t.Helper()
	got := AppendUnixLine(nil, n, now)
	want := referenceUnixLine(nil, n, now)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendUnixLine(%+v, now=%v)\n got %q\nwant %q", *n, now, got, want)
	}
}

// dirWithChildren builds a directory whose link count is 2+k.
func dirWithChildren(k int) *Node {
	d := NewDir(fmt.Sprintf("d%d", k), Perm755)
	for i := 0; i < k; i++ {
		d.Add(NewFile(fmt.Sprintf("f%d", i), Perm644, 1))
	}
	return d
}

// TestAppendUnixLineMatchesReference renders 250k random nodes both ways:
// every permission value, files, directories with 0 to 1,000 children and
// symlinks; sizes from zero through 13-digit to negative; owners shorter and
// longer than the 8-byte column; and times in three zones, zero, ±1 ns
// around both 180-day edges, and with years outside 1000–9999.
func TestAppendUnixLineMatchesReference(t *testing.T) {
	zones := []*time.Location{
		time.UTC,
		time.FixedZone("EST", -5*3600),
		time.FixedZone("IST", 5*3600+1800),
	}
	dirs := []*Node{dirWithChildren(0), dirWithChildren(1), dirWithChildren(7), dirWithChildren(98), dirWithChildren(1000)}
	names := []string{"", "a", "ftp", "ftpuser1", "verylongowner", "www-data"}
	const edge = 180 * 24 * time.Hour
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 250_000; i++ {
		zone := zones[rng.Intn(len(zones))]
		now := time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])
		var n *Node
		switch rng.Intn(4) {
		case 0:
			n = dirs[rng.Intn(len(dirs))]
		case 1:
			n = NewSymlink("link", "/target/"+names[rng.Intn(len(names))])
		default:
			n = NewFile("file.bin", 0, 0)
		}
		// Cycle all 512 permission values; the high bits are noise both
		// renderers ignore.
		n.Perm = Mode(i%512) | Mode(rng.Intn(128))<<9
		n.Owner = names[rng.Intn(len(names))]
		n.Group = names[rng.Intn(len(names))]
		switch rng.Intn(6) {
		case 0:
			n.Size = 0
		case 1:
			n.Size = rng.Int63n(1000)
		case 2:
			n.Size = rng.Int63n(1e13) // wider than the 12-byte column
		case 3:
			n.Size = -rng.Int63n(1e6)
		case 4:
			n.Size = []int64{math.MaxInt64, math.MinInt64, -1, 999_999_999_999, 1_000_000_000_000}[rng.Intn(5)]
		default:
			n.Size = rng.Int63()
		}
		switch rng.Intn(8) {
		case 0:
			n.MTime = time.Time{}
		case 1:
			// ±1 ns around the past and future 180-day edges.
			off := edge + time.Duration(rng.Intn(3)-1)
			if rng.Intn(2) == 0 {
				off = -off
			}
			n.MTime = now.Add(off).In(zone)
		case 2:
			// Years outside 1000–9999, including negative ones.
			year := []int{-400, -1, 0, 1, 999, 1000, 9999, 10000, 12345}[rng.Intn(9)]
			n.MTime = time.Date(year, time.Month(1+rng.Intn(12)), 1+rng.Intn(31), rng.Intn(24), rng.Intn(60), 0, 0, zone)
		case 3:
			// Near now: the hh:mm form.
			n.MTime = now.Add(time.Duration(rng.Int63n(int64(2*edge))) - edge).In(zone)
		default:
			n.MTime = time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).In(zone)
		}
		checkUnixLine(t, n, now)
	}
}

// FuzzAppendUnixLine checks AppendUnixLine against the reference renderer
// on arbitrary nodes and clocks; testdata/fuzz/FuzzAppendUnixLine holds the
// seed corpus plain `go test` replays.
func FuzzAppendUnixLine(f *testing.F) {
	f.Add("pub", "ftp", "ftp", uint16(0o755), true, "", int64(4096), int64(1434628800), int64(0), int64(1434628800), 0)
	f.Add("x", "root", "wheel", uint16(0o644), false, "/etc/x", int64(-7), int64(-62135596800), int64(1), int64(0), -18000)
	f.Fuzz(func(t *testing.T, name, owner, group string, perm uint16, isDir bool, link string, size, sec, nsec, nowSec int64, zoneOff int) {
		zone := time.FixedZone("Z", zoneOff%(26*3600))
		n := &Node{Name: name, IsDir: isDir, Perm: Mode(perm), Owner: owner, Group: group, Size: size, LinkTarget: link}
		if sec != 0 || nsec != 0 {
			n.MTime = time.Unix(sec, nsec).In(zone)
		}
		checkUnixLine(t, n, time.Unix(nowSec, 0))
	})
}

// BenchmarkAppendListing renders a 512-entry Unix listing into a reused
// buffer: mtimes one day apart (about a third recent, rendered with hh:mm,
// the rest with the year) and a directory every eighth entry.
func BenchmarkAppendListing(b *testing.B) {
	now := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	entries := make([]*Node, 512)
	for i := range entries {
		var n *Node
		if i%8 == 0 {
			n = NewDir(fmt.Sprintf("dir%03d", i), Perm755)
		} else {
			n = NewFile(fmt.Sprintf("file%03d.dat", i), Perm644, int64(i)*7919)
		}
		n.MTime = now.Add(-time.Duration(i) * 24 * time.Hour)
		entries[i] = n
	}
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendListing(buf[:0], entries, StyleUnix, now)
	}
	b.SetBytes(int64(len(buf)))
}
