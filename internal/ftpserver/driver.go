package ftpserver

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftpcloud/internal/vfs"
)

// Driver abstracts the storage backend a session operates against, so the
// session loop never reaches into a concrete filesystem. The engine ships a
// vfs-backed driver (the simulated worlds), a flat in-memory driver tuned
// for high session concurrency, and composable quota/rate-limit wrappers —
// mirroring the pluggable-backend architecture production FTP server
// libraries are built around.
//
// Paths are always absolute and pre-cleaned (vfs.Join output). Drivers must
// be safe for concurrent use by many sessions.
type Driver interface {
	// Lookup resolves a path to its node, or nil when absent.
	Lookup(p string) *vfs.Node
	// List returns the sorted entries of the directory at p (or the node
	// itself for a file path).
	List(p string) ([]*vfs.Node, error)
	// Store writes a file. When replace is false and the name is taken,
	// the driver may rename with an incrementing suffix (vfs semantics).
	Store(p string, content []byte, perm vfs.Mode, replace bool, owner string, anonUpload bool) (*vfs.Node, error)
	// Delete removes a file or empty directory.
	Delete(p string) error
	// Mkdir creates a directory; the parent must exist.
	Mkdir(p string, perm vfs.Mode) (*vfs.Node, error)
}

// Sentinel errors drivers and wrappers report; the session loop maps them
// onto the appropriate reply codes (552 for quota, 450 for rate limiting).
var (
	// ErrQuotaExceeded marks a write rejected by a QuotaDriver.
	ErrQuotaExceeded = errors.New("ftpserver: storage quota exceeded")
	// ErrRateLimited marks an operation rejected by a RateLimitedDriver.
	ErrRateLimited = errors.New("ftpserver: operation rate limit exceeded")
)

// VFSDriver adapts a *vfs.FS tree — the simulated-world backend every
// personality served before the driver split, now just one implementation.
type VFSDriver struct {
	FS *vfs.FS
}

// NewVFSDriver wraps an existing filesystem tree.
func NewVFSDriver(fs *vfs.FS) *VFSDriver { return &VFSDriver{FS: fs} }

func (d *VFSDriver) Lookup(p string) *vfs.Node          { return d.FS.Lookup(p) }
func (d *VFSDriver) List(p string) ([]*vfs.Node, error) { return d.FS.List(p) }

func (d *VFSDriver) Store(p string, content []byte, perm vfs.Mode, replace bool, owner string, anonUpload bool) (*vfs.Node, error) {
	return d.FS.PutUpload(p, content, perm, replace, owner, anonUpload)
}

func (d *VFSDriver) Delete(p string) error { return d.FS.Delete(p) }

func (d *VFSDriver) Mkdir(p string, perm vfs.Mode) (*vfs.Node, error) {
	return d.FS.Mkdir(p, perm)
}

// ListKind selects one of the LIST-family response bodies.
type ListKind int

// The LIST-family bodies a session sends.
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

// appendBody appends kind's body for entries to dst. The session's List
// path and MemDriver's cache fill both render through it, so a cached body
// is the uncached one byte for byte.
func appendBody(dst []byte, entries []*vfs.Node, kind ListKind, now time.Time) []byte {
	switch kind {
	case ListDOS:
		return vfs.AppendListing(dst, entries, vfs.StyleDOS, now)
	case ListNames:
		return vfs.AppendNameList(dst, entries)
	case ListMLSD:
		return vfs.AppendMLSDListing(dst, entries, now)
	default:
		return vfs.AppendListing(dst, entries, vfs.StyleUnix, now)
	}
}

// lister is the optional Driver capability of handing out a LIST-family
// body ready to send, which the session prefers over List plus a render.
// MemDriver has it and caches what it renders. QuotaDriver and
// RateLimitedDriver embed Driver and do not forward it, so a wrapped
// backend stays on the List path and RateLimitedDriver charges every
// listing.
type lister interface {
	// Listing returns kind's body for the directory (or file) at p as
	// rendered at now. The slice may be shared: callers must not write
	// into it.
	Listing(p string, kind ListKind, now time.Time) ([]byte, error)
}

// MemDriver is a flat in-memory backend: one map from absolute path to
// node, with each directory's children held by its vfs node, plus a
// per-directory listing cache. Listings are the hot read on a loaded
// server, so a directory's sorted entries and every LIST-family body
// rendered from them are kept until a Store, Mkdir or Delete changes what
// they show: a repeated LIST of an unchanged directory is a read-locked map
// hit and one write of a shared body.
//
// The driver owns the nodes it serves, a seeding tree's included: it adds
// and removes the children of vfs directory nodes, so a directory's ls -l
// link count is the one VFSDriver shows.
type MemDriver struct {
	mu    sync.RWMutex
	nodes map[string]*vfs.Node // path → node
	dirs  map[string]*dirCache // dir path → cached listing
}

// dirCache is one directory's cached listing: its sorted entries and the
// bodies rendered from them so far, by kind. The entries and each body are
// immutable once published; a fill replaces an expired body, and a change
// below the directory drops the whole dirCache.
type dirCache struct {
	entries []*vfs.Node
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

// recentSpan is how close to now vfs.AppendUnixLine dates an entry with
// hh:mm instead of the year: now-180d < MTime < now+180d.
const recentSpan = 180 * 24 * time.Hour

// newListBody wraps text, rendered at now from entries, with the clocks it
// stays valid for, or returns nil when it depends on now at every instant:
// an entry with a zero MTime is dated relative to now, so a body that shows
// its date is never cached. A Unix line depends on now only through the
// recent test, which flips at MTime-180d+1ns and at MTime+180d; the body
// holds between the nearest such edges on either side of now.
func newListBody(text []byte, entries []*vfs.Node, kind ListKind, now time.Time) *listBody {
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

// NewMemDriver builds an empty in-memory backend with a world-readable root.
func NewMemDriver() *MemDriver {
	d := &MemDriver{
		nodes: make(map[string]*vfs.Node),
		dirs:  make(map[string]*dirCache),
	}
	d.nodes["/"] = vfs.NewDir("/", vfs.Perm755)
	return d
}

// MemDriverFromFS seeds an in-memory backend from a vfs tree — the bridge
// from world construction (personality bait trees, demo content) to the
// flat backend. The driver takes the tree over: callers must not use fs
// afterwards.
func MemDriverFromFS(fs *vfs.FS) *MemDriver {
	d := NewMemDriver()
	fs.Root().Walk("/", func(p string, n *vfs.Node) bool {
		d.nodes[p] = n
		return true
	})
	return d
}

// splitPath separates a cleaned absolute path into parent dir and base name.
func splitPath(p string) (dir, base string) {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/", p[i+1:]
	}
	return p[:i], p[i+1:]
}

// joinPath rebuilds a cleaned absolute path from a parent dir and name.
func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// insert publishes n at p as a child of parent, replacing whatever held the
// name; a directory replaced by a file takes its subtree with it, as in
// vfs.FS. Caller holds the write lock.
func (d *MemDriver) insert(parent *vfs.Node, p string, n *vfs.Node) {
	if old := d.nodes[p]; old != nil && old.IsDir {
		old.Walk(p, func(q string, _ *vfs.Node) bool {
			delete(d.nodes, q)
			delete(d.dirs, q)
			return true
		})
	}
	parent.Add(n)
	d.nodes[p] = n
	d.invalidate(p)
}

// invalidate drops the cached listings a change at p makes stale: p's own,
// its parent's, whose entries changed, and its grandparent's, whose ls -l
// line for the parent shows the parent's child count. Caller holds the
// write lock.
func (d *MemDriver) invalidate(p string) {
	delete(d.dirs, p)
	dir, _ := splitPath(p)
	delete(d.dirs, dir)
	grand, _ := splitPath(dir)
	delete(d.dirs, grand)
}

// dirLocked returns the listing at p: the directory's cache entry, filled
// on a miss, or an uncached one-entry listing for a file. Caller holds the
// write lock.
func (d *MemDriver) dirLocked(p string) (*dirCache, error) {
	if c := d.dirs[p]; c != nil {
		return c, nil
	}
	n := d.nodes[p]
	if n == nil {
		return nil, fmt.Errorf("memdriver: %s: no such file or directory", p)
	}
	if !n.IsDir {
		return &dirCache{entries: []*vfs.Node{n}}, nil
	}
	c := &dirCache{entries: n.Children()}
	d.dirs[p] = c
	return c, nil
}

func (d *MemDriver) Lookup(p string) *vfs.Node {
	d.mu.RLock()
	n := d.nodes[vfs.Clean(p)]
	d.mu.RUnlock()
	return n
}

func (d *MemDriver) List(p string) ([]*vfs.Node, error) {
	p = vfs.Clean(p)
	d.mu.RLock()
	c := d.dirs[p]
	d.mu.RUnlock()
	if c == nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		var err error
		if c, err = d.dirLocked(p); err != nil {
			return nil, err
		}
	}
	return c.entries, nil
}

// Listing serves kind's body for p from the directory's cache while now is
// inside the body's validity window, and otherwise renders it with
// appendBody and caches it when it can.
func (d *MemDriver) Listing(p string, kind ListKind, now time.Time) ([]byte, error) {
	if kind < 0 || kind >= numListKinds {
		return nil, fmt.Errorf("memdriver: unknown listing kind %d", kind)
	}
	p = vfs.Clean(p)
	d.mu.RLock()
	if c := d.dirs[p]; c != nil {
		if b := c.bodies[kind]; b != nil && b.validAt(now) {
			d.mu.RUnlock()
			return b.text, nil
		}
	}
	d.mu.RUnlock()
	// Render under the write lock: a concurrent Store or Delete can then
	// neither publish a stale body nor change a child count mid-render.
	d.mu.Lock()
	defer d.mu.Unlock()
	c, err := d.dirLocked(p)
	if err != nil {
		return nil, err
	}
	text := appendBody(nil, c.entries, kind, now)
	if d.dirs[p] == c {
		c.bodies[kind] = newListBody(text, c.entries, kind, now)
	}
	return text, nil
}

func (d *MemDriver) Store(p string, content []byte, perm vfs.Mode, replace bool, owner string, anonUpload bool) (*vfs.Node, error) {
	p = vfs.Clean(p)
	dir, base := splitPath(p)
	if base == "" {
		return nil, fmt.Errorf("memdriver: empty file name")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	parent := d.nodes[dir]
	if parent == nil || !parent.IsDir {
		return nil, fmt.Errorf("memdriver: %s: parent does not exist", p)
	}
	name := base
	if !replace {
		for i := 1; parent.Child(name) != nil; i++ {
			name = fmt.Sprintf("%s.%d", base, i)
			if i > 1000 {
				return nil, fmt.Errorf("memdriver: %s: too many rename collisions", p)
			}
		}
	}
	node := vfs.NewFileContent(name, perm, content)
	node.MTime = time.Now()
	if owner != "" {
		node.Owner = owner
	}
	node.AnonUpload = anonUpload
	d.insert(parent, joinPath(dir, name), node)
	return node, nil
}

func (d *MemDriver) Delete(p string) error {
	p = vfs.Clean(p)
	if p == "/" {
		return fmt.Errorf("memdriver: cannot delete root")
	}
	dir, base := splitPath(p)
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nodes[p]
	if n == nil {
		return fmt.Errorf("memdriver: %s: no such file", p)
	}
	if n.IsDir && n.CountChildren() > 0 {
		return fmt.Errorf("memdriver: %s: directory not empty", p)
	}
	d.nodes[dir].Remove(base)
	delete(d.nodes, p)
	d.invalidate(p)
	return nil
}

func (d *MemDriver) Mkdir(p string, perm vfs.Mode) (*vfs.Node, error) {
	p = vfs.Clean(p)
	dir, base := splitPath(p)
	if base == "" {
		return nil, fmt.Errorf("memdriver: cannot create root")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	parent := d.nodes[dir]
	if parent == nil || !parent.IsDir {
		return nil, fmt.Errorf("memdriver: %s: parent does not exist", p)
	}
	if d.nodes[p] != nil {
		return nil, fmt.Errorf("memdriver: %s: already exists", p)
	}
	node := vfs.NewDir(base, perm)
	node.MTime = time.Now()
	d.insert(parent, p, node)
	return node, nil
}

// QuotaDriver bounds the bytes and entries a backend accepts — the polite
// version of a disk filling up. Writes past either limit fail with
// ErrQuotaExceeded, which sessions surface as a 552 reply.
type QuotaDriver struct {
	Driver
	// MaxBytes caps the total content bytes stored through this wrapper;
	// zero means unlimited.
	MaxBytes int64
	// MaxEntries caps the files and directories created through this
	// wrapper; zero means unlimited.
	MaxEntries int64

	usedBytes   atomic.Int64
	usedEntries atomic.Int64
}

// NewQuotaDriver wraps inner with byte and entry caps.
func NewQuotaDriver(inner Driver, maxBytes, maxEntries int64) *QuotaDriver {
	return &QuotaDriver{Driver: inner, MaxBytes: maxBytes, MaxEntries: maxEntries}
}

// UsedBytes reports the bytes currently accounted against the quota.
func (d *QuotaDriver) UsedBytes() int64 { return d.usedBytes.Load() }

// charge atomically applies delta against used, rolling back and reporting
// failure when a positive cap would be exceeded by a positive delta.
func charge(used *atomic.Int64, delta, cap int64) bool {
	if used.Add(delta) > cap && cap > 0 && delta > 0 {
		used.Add(-delta)
		return false
	}
	return true
}

func (d *QuotaDriver) Store(p string, content []byte, perm vfs.Mode, replace bool, owner string, anonUpload bool) (*vfs.Node, error) {
	n := int64(len(content))
	// Credit a replaced file's bytes before charging the new ones, so
	// overwriting in place doesn't consume quota.
	var credit int64
	if replace {
		if old := d.Driver.Lookup(p); old != nil && !old.IsDir {
			credit = old.Size
		}
	}
	if !charge(&d.usedBytes, n-credit, d.MaxBytes) {
		return nil, ErrQuotaExceeded
	}
	var newEntry int64
	if credit == 0 {
		newEntry = 1
	}
	if !charge(&d.usedEntries, newEntry, d.MaxEntries) {
		d.usedBytes.Add(credit - n)
		return nil, ErrQuotaExceeded
	}
	node, err := d.Driver.Store(p, content, perm, replace, owner, anonUpload)
	if err != nil {
		d.usedBytes.Add(credit - n)
		d.usedEntries.Add(-newEntry)
	}
	return node, err
}

func (d *QuotaDriver) Mkdir(p string, perm vfs.Mode) (*vfs.Node, error) {
	if !charge(&d.usedEntries, 1, d.MaxEntries) {
		return nil, ErrQuotaExceeded
	}
	node, err := d.Driver.Mkdir(p, perm)
	if err != nil {
		d.usedEntries.Add(-1)
	}
	return node, err
}

func (d *QuotaDriver) Delete(p string) error {
	var credit int64
	if old := d.Driver.Lookup(p); old != nil && !old.IsDir {
		credit = old.Size
	}
	if err := d.Driver.Delete(p); err != nil {
		return err
	}
	d.usedBytes.Add(-credit)
	d.usedEntries.Add(-1)
	return nil
}

// RateLimitedDriver throttles backend operations with a token bucket — the
// crawler-cap behaviour real servers apply to abusive clients, expressed as
// a driver wrapper so it composes with any backend. Reads and writes that
// find the bucket empty fail with ErrRateLimited (a transient 450 on the
// wire) instead of queueing, so a flood degrades politely rather than
// building unbounded backlog.
type RateLimitedDriver struct {
	Driver
	ops *TokenBucket
}

// NewRateLimitedDriver wraps inner with an operations-per-second cap.
func NewRateLimitedDriver(inner Driver, opsPerSec float64) *RateLimitedDriver {
	burst := opsPerSec
	if burst < 1 {
		burst = 1
	}
	return &RateLimitedDriver{Driver: inner, ops: NewTokenBucket(opsPerSec, burst)}
}

func (d *RateLimitedDriver) take() error {
	if !d.ops.TryTake(1) {
		return ErrRateLimited
	}
	return nil
}

func (d *RateLimitedDriver) List(p string) ([]*vfs.Node, error) {
	if err := d.take(); err != nil {
		return nil, err
	}
	return d.Driver.List(p)
}

func (d *RateLimitedDriver) Store(p string, content []byte, perm vfs.Mode, replace bool, owner string, anonUpload bool) (*vfs.Node, error) {
	if err := d.take(); err != nil {
		return nil, err
	}
	return d.Driver.Store(p, content, perm, replace, owner, anonUpload)
}

func (d *RateLimitedDriver) Delete(p string) error {
	if err := d.take(); err != nil {
		return err
	}
	return d.Driver.Delete(p)
}

func (d *RateLimitedDriver) Mkdir(p string, perm vfs.Mode) (*vfs.Node, error) {
	if err := d.take(); err != nil {
		return nil, err
	}
	return d.Driver.Mkdir(p, perm)
}
