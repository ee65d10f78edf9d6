package vfs

import (
	"fmt"
	"time"
)

// ListKind selects one of the LIST-family response bodies.
type ListKind int

// The LIST-family bodies a server sends.
const (
	// ListUnix is LIST in the ls -l dialect.
	ListUnix ListKind = iota
	// ListDOS is LIST in the IIS dialect.
	ListDOS
	// ListNames is NLST: bare names.
	ListNames
	// ListMLSD is MLSD: RFC 3659 facts.
	ListMLSD

	numListKinds
)

// appendBody appends kind's body for entries to dst. Listing renders every
// body through it, cached or not.
func appendBody(dst []byte, entries []*Node, kind ListKind, now time.Time) []byte {
	switch kind {
	case ListDOS:
		return AppendListing(dst, entries, StyleDOS, now)
	case ListNames:
		return AppendNameList(dst, entries)
	case ListMLSD:
		return AppendMLSDListing(dst, entries, now)
	default:
		return AppendListing(dst, entries, StyleUnix, now)
	}
}

// dirListing is one directory's cached listing: its sorted entries and the
// bodies rendered from them so far, by kind. The entries and each body are
// immutable once published; a fill replaces an expired body, and a change
// in the directory drops the whole dirListing.
type dirListing struct {
	entries []*Node
	bodies  [numListKinds]*listBody
}

// listBody is one rendered body and the clocks it renders identically at:
// every now in [from, until), where an unset bound is open.
type listBody struct {
	text              []byte
	from, until       time.Time
	hasFrom, hasUntil bool
}

func (b *listBody) validAt(now time.Time) bool {
	return (!b.hasFrom || !now.Before(b.from)) && (!b.hasUntil || now.Before(b.until))
}

// newListBody wraps text, rendered at now from entries, with the clocks it
// stays valid for, or returns nil when it depends on now at every instant:
// an entry with a zero MTime is dated relative to now, so a body that shows
// its date is never cached. A Unix line depends on now only through the
// recent test, which flips at MTime-180d+1ns and at MTime+180d; the body
// holds between the nearest such edges on either side of now.
func newListBody(text []byte, entries []*Node, kind ListKind, now time.Time) *listBody {
	b := &listBody{text: text}
	if kind == ListNames {
		return b
	}
	for _, n := range entries {
		if n.MTime.IsZero() {
			return nil
		}
		if kind != ListUnix {
			continue
		}
		for _, edge := range [2]time.Time{n.MTime.Add(1 - recentSpan), n.MTime.Add(recentSpan)} {
			if now.Before(edge) {
				if !b.hasUntil || edge.Before(b.until) {
					b.until, b.hasUntil = edge, true
				}
			} else if !b.hasFrom || edge.After(b.from) {
				b.from, b.hasFrom = edge, true
			}
		}
	}
	return b
}

// Listing returns kind's body for the directory (or file) at p as rendered
// at now. A directory's body is cached while now stays inside its validity
// window, so a repeated LIST of an unchanged directory is a read-locked
// hit; a miss renders and fills under the write lock, where no Put, Mkdir
// or Delete can change a child count mid-render or publish a stale body.
// The slice may be shared: callers must not write into it.
func (f *FS) Listing(p string, kind ListKind, now time.Time) ([]byte, error) {
	if kind < 0 || kind >= numListKinds {
		return nil, fmt.Errorf("vfs: unknown listing kind %d", kind)
	}
	f.mu.RLock()
	n, _ := f.lookupLocked(p)
	if c := f.listings[n]; c != nil {
		if b := c.bodies[kind]; b != nil && b.validAt(now) {
			f.mu.RUnlock()
			return b.text, nil
		}
	}
	f.mu.RUnlock()

	f.mu.Lock()
	defer f.mu.Unlock()
	n, _ = f.lookupLocked(p)
	if n == nil {
		return nil, fmt.Errorf("vfs: %s: no such file or directory", p)
	}
	if !n.IsDir {
		return appendBody(nil, []*Node{n}, kind, now), nil
	}
	c := f.listings[n]
	if c == nil {
		if f.listings == nil {
			f.listings = make(map[*Node]*dirListing)
		}
		c = &dirListing{entries: n.Children()}
		f.listings[n] = c
	}
	text := appendBody(nil, c.entries, kind, now)
	c.bodies[kind] = newListBody(text, c.entries, kind, now)
	return text, nil
}

// dropListings forgets the listings a change in dir makes stale: dir's own,
// whose entries changed, and grand's, whose ls -l line for dir shows dir's
// child count. gone, when non-nil, is the node the change unlinked from
// dir; it and every directory below it lose theirs, so no entry outlives
// its directory. Caller holds the write lock.
func (f *FS) dropListings(dir, grand, gone *Node) {
	if len(f.listings) == 0 {
		return
	}
	delete(f.listings, dir)
	delete(f.listings, grand)
	if gone != nil {
		f.forgetSubtree(gone)
	}
}

// forgetSubtree drops the listings of n and every directory below it.
func (f *FS) forgetSubtree(n *Node) {
	if !n.IsDir {
		return
	}
	delete(f.listings, n)
	for _, c := range n.children {
		f.forgetSubtree(c)
	}
}
