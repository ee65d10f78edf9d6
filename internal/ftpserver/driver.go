package ftpserver

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// MemDriver is a flat in-memory backend: one map from absolute path to node
// plus a per-directory child index with cached sorted listings. Listings are
// the hot read on a loaded server; caching the sorted slice makes LIST a
// read-locked map hit instead of a sort per request, which is what lets the
// 10k-session benchmark spend its cycles on the protocol rather than the
// backend.
type MemDriver struct {
	mu       sync.RWMutex
	nodes    map[string]*vfs.Node            // path → node
	children map[string]map[string]*vfs.Node // dir path → name → node
	sorted   map[string][]*vfs.Node          // dir path → cached sorted entries
}

// NewMemDriver builds an empty in-memory backend with a world-readable root.
func NewMemDriver() *MemDriver {
	d := &MemDriver{
		nodes:    make(map[string]*vfs.Node),
		children: make(map[string]map[string]*vfs.Node),
		sorted:   make(map[string][]*vfs.Node),
	}
	root := vfs.NewDir("/", vfs.Perm755)
	d.nodes["/"] = root
	d.children["/"] = make(map[string]*vfs.Node)
	return d
}

// MemDriverFromFS seeds an in-memory backend from a vfs tree — the bridge
// from world construction (personality bait trees, demo content) to the
// flat backend.
func MemDriverFromFS(fs *vfs.FS) *MemDriver {
	d := NewMemDriver()
	fs.Root().Walk("/", func(p string, n *vfs.Node) bool {
		if p == "/" {
			d.nodes["/"] = n
			return true
		}
		d.insert(p, n)
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

// insert registers a node at p, creating the child index as needed. Caller
// holds the write lock (or is constructing).
func (d *MemDriver) insert(p string, n *vfs.Node) {
	dir, _ := splitPath(p)
	d.nodes[p] = n
	kids := d.children[dir]
	if kids == nil {
		kids = make(map[string]*vfs.Node)
		d.children[dir] = kids
	}
	kids[n.Name] = n
	delete(d.sorted, dir)
	if n.IsDir && d.children[p] == nil {
		d.children[p] = make(map[string]*vfs.Node)
	}
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
	if s, ok := d.sorted[p]; ok {
		d.mu.RUnlock()
		return s, nil
	}
	n := d.nodes[p]
	d.mu.RUnlock()
	if n == nil {
		return nil, fmt.Errorf("memdriver: %s: no such file or directory", p)
	}
	if !n.IsDir {
		return []*vfs.Node{n}, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.sorted[p]; ok {
		return s, nil
	}
	kids := d.children[p]
	out := make([]*vfs.Node, 0, len(kids))
	for _, c := range kids {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	d.sorted[p] = out
	return out, nil
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
	kids := d.children[dir]
	name := base
	if !replace {
		for i := 1; kids[name] != nil; i++ {
			name = fmt.Sprintf("%s.%d", base, i)
			if i > 1000 {
				return nil, fmt.Errorf("memdriver: %s: too many rename collisions", p)
			}
		}
	}
	node := vfs.NewFileContent(name, perm, content)
	if owner != "" {
		node.Owner = owner
	}
	node.AnonUpload = anonUpload
	d.insert(joinPath(dir, name), node)
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
	if n.IsDir && len(d.children[p]) > 0 {
		return fmt.Errorf("memdriver: %s: directory not empty", p)
	}
	delete(d.nodes, p)
	delete(d.children, p)
	delete(d.sorted, p)
	if kids := d.children[dir]; kids != nil {
		delete(kids, base)
	}
	delete(d.sorted, dir)
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
	d.insert(p, node)
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
