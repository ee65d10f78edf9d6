package vfs

import (
	"fmt"
	"strconv"
	"time"
)

// ListStyle selects the directory-listing dialect a server emits.
type ListStyle int

// Listing dialects observed in the wild and handled by the enumerator.
const (
	// StyleUnix is the ubiquitous "ls -l" format emitted by ProFTPD,
	// vsftpd, Pure-FTPd and most embedded Linux devices.
	StyleUnix ListStyle = iota + 1
	// StyleDOS is the MS-DOS format emitted by IIS and many Windows
	// servers; it carries no permission bits, which is why the paper
	// labels such files "unk-readability".
	StyleDOS
)

// String names the style.
func (s ListStyle) String() string {
	switch s {
	case StyleUnix:
		return "unix"
	case StyleDOS:
		return "dos"
	default:
		return fmt.Sprintf("ListStyle(%d)", int(s))
	}
}

// permTriplets holds the eight rwx groups, three bytes each, indexed by
// 3×(the group's three permission bits).
const permTriplets = "---" + "--x" + "-w-" + "-wx" + "r--" + "r-x" + "rw-" + "rwx"

// appendPerm appends "drwxr-xr-x"-style mode text.
func appendPerm(dst []byte, n *Node) []byte {
	kind := byte('-')
	if n.IsDir {
		kind = 'd'
	}
	if n.LinkTarget != "" {
		kind = 'l'
	}
	dst = append(dst, kind)
	for shift := 6; shift >= 0; shift -= 3 {
		g := 3 * (int(n.Perm>>shift) & 7)
		dst = append(dst, permTriplets[g:g+3]...)
	}
	return dst
}

// permString renders "drwxr-xr-x"-style mode text.
func permString(n *Node) string {
	var b [10]byte
	return string(appendPerm(b[:0], n))
}

// appendPadInt appends v right-aligned in a space-padded field of width w.
// Non-negative values are rendered by a digit loop; negative ones (never a
// real size, but a hand-built node may carry one) go through strconv.
func appendPadInt(dst []byte, v int64, w int) []byte {
	var tmp [20]byte
	var num []byte
	if v < 0 {
		num = strconv.AppendInt(tmp[:0], v, 10)
	} else {
		i := len(tmp)
		for {
			i--
			tmp[i] = byte('0' + v%10)
			v /= 10
			if v == 0 {
				break
			}
		}
		num = tmp[i:]
	}
	for pad := w - len(num); pad > 0; pad-- {
		dst = append(dst, ' ')
	}
	return append(dst, num...)
}

// appendPadRight appends s left-aligned in a space-padded field of width w.
func appendPadRight(dst []byte, s string, w int) []byte {
	dst = append(dst, s...)
	for pad := w - len(s); pad > 0; pad-- {
		dst = append(dst, ' ')
	}
	return dst
}

// monthAbbrevs holds the three-letter month names, three bytes each.
const monthAbbrevs = "JanFebMarAprMayJunJulAugSepOctNovDec"

// appendLsDate appends t in t's own zone as ls -l does: "Jan _2 15:04" when
// recent, "Jan _2  2006" otherwise. The fields are rendered by hand; a year
// outside 1000–9999 falls back to time.AppendFormat.
func appendLsDate(dst []byte, t time.Time, recent bool) []byte {
	year, month, day := t.Date()
	if !recent && (year < 1000 || year > 9999) {
		return t.AppendFormat(dst, "Jan _2  2006")
	}
	m := 3 * (int(month) - 1)
	dst = append(dst, monthAbbrevs[m:m+3]...)
	if day < 10 {
		dst = append(dst, ' ', ' ', byte('0'+day), ' ')
	} else {
		dst = append(dst, ' ', byte('0'+day/10), byte('0'+day%10), ' ')
	}
	if recent {
		hour, minute, _ := t.Clock()
		return append(dst, byte('0'+hour/10), byte('0'+hour%10), ':', byte('0'+minute/10), byte('0'+minute%10))
	}
	return append(dst, ' ', byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10))
}

// recentSpan is how close to now AppendUnixLine dates an entry with hh:mm
// instead of the year: now-180d < ModTime < now+180d.
const recentSpan = 180 * 24 * time.Hour

// AppendUnixLine appends one node as an ls -l line (no terminator).
// The Append* family writes into a caller-owned scratch buffer so a busy
// server renders listings without per-entry string allocation.
func AppendUnixLine(dst []byte, n *Node, now time.Time) []byte {
	links := 1
	if n.IsDir {
		links = 2 + n.CountChildren()
	}
	size := n.Size
	if n.IsDir {
		size = 4096
	}
	dst = appendPerm(dst, n)
	dst = append(dst, ' ')
	dst = appendPadInt(dst, int64(links), 3)
	dst = append(dst, ' ')
	dst = appendPadRight(dst, n.Owner, 8)
	dst = append(dst, ' ')
	dst = appendPadRight(dst, n.Group, 8)
	dst = append(dst, ' ')
	dst = appendPadInt(dst, size, 12)
	dst = append(dst, ' ')
	t := n.ModTime()
	d := now.Sub(t)
	dst = appendLsDate(dst, t, d < recentSpan && d > -recentSpan)
	dst = append(dst, ' ')
	dst = append(dst, n.Name...)
	if n.LinkTarget != "" {
		dst = append(dst, " -> "...)
		dst = append(dst, n.LinkTarget...)
	}
	return dst
}

// FormatUnixLine renders one node as an ls -l line.
func FormatUnixLine(n *Node, now time.Time) string {
	return string(AppendUnixLine(nil, n, now))
}

// AppendDOSLine appends one node as an IIS-style line (no terminator).
func AppendDOSLine(dst []byte, n *Node, now time.Time) []byte {
	dst = n.ModTime().AppendFormat(dst, "01-02-06  03:04PM")
	if n.IsDir {
		dst = append(dst, "       <DIR>          "...)
	} else {
		dst = append(dst, ' ')
		dst = appendPadInt(dst, n.Size, 20)
		dst = append(dst, ' ')
	}
	return append(dst, n.Name...)
}

// FormatDOSLine renders one node as an IIS-style line.
func FormatDOSLine(n *Node, now time.Time) string {
	return string(AppendDOSLine(nil, n, now))
}

// AppendListing appends a full LIST response body for the given entries.
// Lines are CRLF-terminated as they are on the data channel.
func AppendListing(dst []byte, entries []*Node, style ListStyle, now time.Time) []byte {
	for _, n := range entries {
		switch style {
		case StyleDOS:
			dst = AppendDOSLine(dst, n, now)
		default:
			dst = AppendUnixLine(dst, n, now)
		}
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// FormatListing renders a full LIST response body for the given entries.
func FormatListing(entries []*Node, style ListStyle, now time.Time) string {
	return string(AppendListing(nil, entries, style, now))
}

// AppendMLSDLine appends one node as an RFC 3659 machine-readable listing
// line: "fact=value;fact=value; name" (no terminator).
func AppendMLSDLine(dst []byte, n *Node, now time.Time) []byte {
	typ := "file"
	size := n.Size
	if n.IsDir {
		typ = "dir"
		size = 4096
	}
	dst = append(dst, "type="...)
	dst = append(dst, typ...)
	dst = append(dst, ";size="...)
	dst = strconv.AppendInt(dst, size, 10)
	dst = append(dst, ";modify="...)
	dst = n.ModTime().UTC().AppendFormat(dst, "20060102150405")
	dst = append(dst, ";UNIX.mode="...)
	var oct [8]byte
	o := strconv.AppendUint(oct[:0], uint64(uint16(n.Perm)), 8)
	for pad := 4 - len(o); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	dst = append(dst, o...)
	dst = append(dst, ";UNIX.owner="...)
	dst = append(dst, n.Owner...)
	dst = append(dst, "; "...)
	return append(dst, n.Name...)
}

// FormatMLSDLine renders one node as an RFC 3659 machine-readable listing
// line: "fact=value;fact=value; name".
func FormatMLSDLine(n *Node, now time.Time) string {
	return string(AppendMLSDLine(nil, n, now))
}

// AppendMLSDListing appends a full MLSD response body.
func AppendMLSDListing(dst []byte, entries []*Node, now time.Time) []byte {
	for _, n := range entries {
		dst = AppendMLSDLine(dst, n, now)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// FormatMLSDListing renders a full MLSD response body.
func FormatMLSDListing(entries []*Node, now time.Time) string {
	return string(AppendMLSDListing(nil, entries, now))
}

// AppendNameList appends an NLST response body (bare names).
func AppendNameList(dst []byte, entries []*Node) []byte {
	for _, n := range entries {
		dst = append(dst, n.Name...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// FormatNameList renders an NLST response body (bare names).
func FormatNameList(entries []*Node) string {
	return string(AppendNameList(nil, entries))
}
