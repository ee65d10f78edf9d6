// Package vfs implements the virtual filesystems served by simulated FTP
// hosts: an in-memory tree of nodes with Unix-style permission bits, owners,
// sizes, and modification times, plus renderers for the two directory-listing
// dialects the enumerator must parse (Unix ls -l and MS-DOS style).
//
// Trees are small relative to the worlds they model because file content is
// synthesized on demand: a node carries either literal bytes or a declared
// size whose content is derived deterministically from the node's seed.
package vfs

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode captures the subset of file metadata FTP listings expose.
type Mode uint16

// Permission bits follow the Unix convention.
const (
	PermOtherExec Mode = 1 << iota
	PermOtherWrite
	PermOtherRead
	PermGroupExec
	PermGroupWrite
	PermGroupRead
	PermOwnerExec
	PermOwnerWrite
	PermOwnerRead
)

// Common permission sets.
const (
	Perm644 = PermOwnerRead | PermOwnerWrite | PermGroupRead | PermOtherRead
	Perm600 = PermOwnerRead | PermOwnerWrite
	Perm755 = PermOwnerRead | PermOwnerWrite | PermOwnerExec |
		PermGroupRead | PermGroupExec | PermOtherRead | PermOtherExec
	Perm777 = Perm755 | PermGroupWrite | PermOtherWrite
)

// Node is a file or directory in a virtual filesystem.
type Node struct {
	Name  string
	IsDir bool
	Perm  Mode
	Owner string
	Group string
	MTime time.Time

	// Content holds literal file bytes when small and meaningful (probe
	// files, scripts). For bulk files only Size is set and content is
	// synthesized from Seed on retrieval.
	Content []byte
	Size    int64
	Seed    uint64

	// AnonUpload marks files uploaded by the anonymous user but not yet
	// approved by an administrator (Pure-FTPd's behaviour, which the
	// paper uses as world-writability evidence).
	AnonUpload bool

	// LinkTarget, when non-empty, marks this node as a symbolic link to
	// the given target (rendered as "name -> target" in Unix listings).
	LinkTarget string

	children map[string]*Node
}

// zeroMTimeDate is the date a node with a zero MTime is rendered at.
var zeroMTimeDate = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

// ModTime is the modification time every listing (LIST, DOS, MLSD, MLST)
// and MDTM render for the node: MTime, or 2015-01-01 UTC when MTime is
// zero, so a hand-built tree lists the same at any clock.
func (n *Node) ModTime() time.Time {
	if n.MTime.IsZero() {
		return zeroMTimeDate
	}
	return n.MTime
}

// NewDir builds an empty directory node.
func NewDir(name string, perm Mode) *Node {
	return &Node{
		Name:     name,
		IsDir:    true,
		Perm:     perm,
		Owner:    "ftp",
		Group:    "ftp",
		children: make(map[string]*Node),
	}
}

// NewFile builds a file node with a declared size.
func NewFile(name string, perm Mode, size int64) *Node {
	return &Node{Name: name, IsDir: false, Perm: perm, Owner: "ftp", Group: "ftp", Size: size}
}

// NewSymlink builds a symbolic-link node.
func NewSymlink(name, target string) *Node {
	return &Node{
		Name: name, Perm: Perm777, Owner: "ftp", Group: "ftp",
		LinkTarget: target, Size: int64(len(target)),
	}
}

// NewFileContent builds a file node with literal content.
func NewFileContent(name string, perm Mode, content []byte) *Node {
	return &Node{
		Name: name, IsDir: false, Perm: perm,
		Owner: "ftp", Group: "ftp",
		Content: content, Size: int64(len(content)),
	}
}

// Add inserts a child into a directory, replacing any same-named entry, and
// returns the child to allow chained construction.
func (n *Node) Add(child *Node) *Node {
	if !n.IsDir {
		panic("vfs: Add on non-directory")
	}
	if n.children == nil {
		n.children = make(map[string]*Node)
	}
	n.children[child.Name] = child
	return child
}

// Child returns the named child, or nil.
func (n *Node) Child(name string) *Node {
	if n.children == nil {
		return nil
	}
	return n.children[name]
}

// Remove deletes the named child, reporting whether it existed.
func (n *Node) Remove(name string) bool {
	if n.children == nil {
		return false
	}
	if _, ok := n.children[name]; !ok {
		return false
	}
	delete(n.children, name)
	return true
}

// Children returns the directory's entries sorted by name.
func (n *Node) Children() []*Node {
	out := make([]*Node, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CountChildren returns the number of direct entries.
func (n *Node) CountChildren() int { return len(n.children) }

// OtherReadable reports whether the all-users read bit is set — the signal
// the paper uses to classify a file as anonymously retrievable.
func (n *Node) OtherReadable() bool { return n.Perm&PermOtherRead != 0 }

// OtherWritable reports whether the all-users write bit is set.
func (n *Node) OtherWritable() bool { return n.Perm&PermOtherWrite != 0 }

// Walk visits the node and all descendants depth-first, passing each node's
// absolute path. Returning false from fn prunes descent into a directory.
func (n *Node) Walk(base string, fn func(p string, node *Node) bool) {
	p := base
	if p == "" {
		p = "/"
	}
	if !fn(p, n) || !n.IsDir {
		return
	}
	for _, c := range n.Children() {
		c.Walk(path.Join(p, c.Name), fn)
	}
}

// FS is a virtual filesystem rooted at a directory node. Methods are safe
// for concurrent use; FTP sessions against the same host share one FS so
// that uploads by one attacker are visible to subsequent crawls. The FS
// also keeps each listed directory's rendered listings (see Listing).
type FS struct {
	mu   sync.RWMutex
	root *Node
	// listings holds the listing cache by directory node, so every path
	// that resolves to a directory shares its entry.
	listings map[*Node]*dirListing
	// gen counts successful mutations; see Generation.
	gen atomic.Uint64

	// CaseInsensitive models Windows-backed servers.
	CaseInsensitive bool
}

// New builds a filesystem around a root directory node. A nil root yields
// an empty world-readable root.
func New(root *Node) *FS {
	if root == nil {
		root = NewDir("/", Perm755)
	}
	return &FS{root: root}
}

// Root returns the root node. It is exposed for construction and analysis:
// once the tree is served, change it only through the FS's methods, which
// hold its lock and drop the listings a change makes stale.
func (f *FS) Root() *Node { return f.root }

// Generation counts the mutations made through Mkdir, Put, PutUpload and
// Delete (a rename is a PutUpload and a Delete). A caller that records it
// can tell later whether the tree has changed since; changes made to nodes
// directly, as a tree is built, are not counted.
func (f *FS) Generation() uint64 { return f.gen.Load() }

// Clean normalizes an FTP path: backslashes become slashes, the result is
// absolute, and "."/".." segments are resolved without escaping the root.
func Clean(p string) string {
	p = strings.ReplaceAll(p, "\\", "/")
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	cleaned := path.Clean(p)
	if cleaned == "." {
		return "/"
	}
	return cleaned
}

// Join resolves a possibly relative FTP path against a current directory.
func Join(cwd, p string) string {
	p = strings.ReplaceAll(p, "\\", "/")
	if strings.HasPrefix(p, "/") {
		return Clean(p)
	}
	return Clean(path.Join(cwd, p))
}

// Lookup resolves an absolute path to a node, or nil.
func (f *FS) Lookup(p string) *Node {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, _ := f.lookupLocked(p)
	return n
}

// lookupLocked resolves p to its node and the directory holding it (nil
// for the root), or a nil node when p is absent. The segments are walked in
// place, so a lookup allocates nothing.
func (f *FS) lookupLocked(p string) (n, parent *Node) {
	n = f.root
	for rest := Clean(p)[1:]; rest != ""; {
		seg := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seg, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if n == nil || !n.IsDir {
			return nil, nil
		}
		parent, n = n, f.child(n, seg)
	}
	return n, parent
}

// child returns dir's entry named name, matched case-insensitively on a
// CaseInsensitive FS when no entry has the exact name.
func (f *FS) child(dir *Node, name string) *Node {
	c := dir.Child(name)
	if c == nil && f.CaseInsensitive {
		for other, n := range dir.children {
			if strings.EqualFold(other, name) {
				return n
			}
		}
	}
	return c
}

// Mkdir creates a directory at p; the parent must exist.
func (f *FS) Mkdir(p string, perm Mode) (*Node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = Clean(p)
	dir, base := path.Split(p)
	parent, grand := f.lookupLocked(dir)
	if parent == nil || !parent.IsDir {
		return nil, fmt.Errorf("vfs: %s: parent does not exist", p)
	}
	if base == "" {
		return nil, fmt.Errorf("vfs: cannot create root")
	}
	if parent.Child(base) != nil {
		return nil, fmt.Errorf("vfs: %s: already exists", p)
	}
	child := NewDir(base, perm)
	child.MTime = time.Now()
	parent.Add(child)
	f.dropListings(parent, grand, nil)
	f.gen.Add(1)
	return child, nil
}

// Put stores a file at p, creating or replacing it; the parent must exist.
// When replace is false and the name is taken, an incrementing suffix is
// appended ("name.1", "name.2", …) — the upload-rename behaviour some real
// servers exhibit, which the paper uses as write evidence.
func (f *FS) Put(p string, content []byte, perm Mode, replace bool) (*Node, error) {
	return f.PutUpload(p, content, perm, replace, "", false)
}

// PutUpload is Put with upload attribution set atomically: nodes published
// into the tree are never mutated afterwards, so concurrent sessions can
// render listings without synchronizing on individual nodes.
func (f *FS) PutUpload(p string, content []byte, perm Mode, replace bool, owner string, anonUpload bool) (*Node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = Clean(p)
	dir, base := path.Split(p)
	parent, grand := f.lookupLocked(dir)
	if parent == nil || !parent.IsDir {
		return nil, fmt.Errorf("vfs: %s: parent does not exist", p)
	}
	if base == "" {
		return nil, fmt.Errorf("vfs: empty file name")
	}
	name := base
	if !replace {
		for i := 1; parent.Child(name) != nil; i++ {
			name = fmt.Sprintf("%s.%d", base, i)
			if i > 1000 {
				return nil, fmt.Errorf("vfs: %s: too many rename collisions", p)
			}
		}
	}
	node := NewFileContent(name, perm, content)
	node.MTime = time.Now()
	if owner != "" {
		node.Owner = owner
	}
	node.AnonUpload = anonUpload
	replaced := parent.Child(name)
	parent.Add(node)
	f.dropListings(parent, grand, replaced)
	f.gen.Add(1)
	return node, nil
}

// Delete removes the file or empty directory at p.
func (f *FS) Delete(p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = Clean(p)
	if p == "/" {
		return fmt.Errorf("vfs: cannot delete root")
	}
	dir, base := path.Split(p)
	parent, grand := f.lookupLocked(dir)
	if parent == nil || !parent.IsDir {
		return fmt.Errorf("vfs: %s: no such file", p)
	}
	target := parent.Child(base)
	if target == nil {
		return fmt.Errorf("vfs: %s: no such file", p)
	}
	if target.IsDir && target.CountChildren() > 0 {
		return fmt.Errorf("vfs: %s: directory not empty", p)
	}
	parent.Remove(base)
	f.dropListings(parent, grand, target)
	f.gen.Add(1)
	return nil
}

// TotalEntries counts all nodes in the tree (including the root).
func (f *FS) TotalEntries() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	count := 0
	f.root.Walk("/", func(string, *Node) bool { count++; return true })
	return count
}

// SynthContent deterministically generates size bytes from seed; used for
// bulk file bodies the analysis never inspects.
func SynthContent(seed uint64, size int64) []byte {
	out := make([]byte, size)
	// splitmix64 finalizer decorrelates adjacent seeds before the xorshift run.
	state := seed + 0x9e3779b97f4a7c15
	state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9
	state = (state ^ (state >> 27)) * 0x94d049bb133111eb
	state ^= state >> 31
	state |= 1
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = byte(state)
	}
	return out
}
