package vfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"
	"testing"
	"time"
)

// datedMTime dates every node of datedTree: old enough that ls -l prints
// its year, so a listing of the tree reads the same at any present-day
// clock.
var datedMTime = time.Date(2015, 3, 1, 10, 30, 0, 0, time.UTC)

// datedTree builds /pub with files entries and an empty world-writable
// /incoming, every node dated datedMTime — the shape of a served anonymous
// host whose listings the FS can cache.
func datedTree(files int) *FS {
	root := NewDir("/", Perm755)
	root.MTime = datedMTime
	pub := root.Add(NewDir("pub", Perm755))
	pub.MTime = datedMTime
	for i := 0; i < files; i++ {
		f := pub.Add(NewFile(fmt.Sprintf("file%03d.bin", i), Perm644, int64(i)*7919))
		f.MTime = datedMTime
	}
	incoming := root.Add(NewDir("incoming", Perm777))
	incoming.MTime = datedMTime
	return New(root)
}

// listKinds are the four LIST-family bodies a directory is served as.
var listKinds = [...]ListKind{ListUnix, ListDOS, ListNames, ListMLSD}

// freshBody renders kind's body for the node at p straight from the tree.
func freshBody(n *Node, kind ListKind, now time.Time) []byte {
	entries := []*Node{n}
	if n.IsDir {
		entries = n.Children()
	}
	return appendBody(nil, entries, kind, now)
}

// randomTree seeds a small nested tree whose mtimes straddle base by up to
// 400 days either way; one node in five has a zero MTime.
func randomTree(rng *rand.Rand, base time.Time) *FS {
	root := NewDir("/", Perm755)
	var fill func(dir *Node, depth int)
	fill = func(dir *Node, depth int) {
		for i := rng.Intn(5); i > 0; i-- {
			var n *Node
			if depth < 2 && rng.Intn(3) == 0 {
				n = NewDir(fmt.Sprintf("d%d", rng.Intn(3)), Perm755)
			} else {
				n = NewFile(fmt.Sprintf("f%d", rng.Intn(6)), Perm644, rng.Int63n(1<<20))
			}
			if rng.Intn(5) != 0 {
				n.MTime = base.Add(time.Duration(rng.Int63n(int64(800*24*time.Hour))) - 400*24*time.Hour)
			}
			if dir.Child(n.Name) == nil {
				dir.Add(n)
				if n.IsDir {
					fill(n, depth+1)
				}
			}
		}
	}
	fill(root, 0)
	return New(root)
}

// treePaths walks fs and returns every path with its node.
func treePaths(fs *FS) map[string]*Node {
	out := make(map[string]*Node)
	fs.Root().Walk("/", func(p string, n *Node) bool {
		out[p] = n
		return true
	})
	return out
}

// edgeClocks returns each entry's ±180-day recent-test boundaries and the
// instants 1ns either side, plus base and the wall clock, shuffled.
func edgeClocks(rng *rand.Rand, entries []*Node, base time.Time) []time.Time {
	clocks := []time.Time{base, time.Now()}
	for _, n := range entries {
		if n.MTime.IsZero() {
			continue
		}
		for _, edge := range []time.Time{n.MTime.Add(-recentSpan), n.MTime.Add(recentSpan)} {
			clocks = append(clocks, edge.Add(-1), edge, edge.Add(1))
		}
	}
	rng.Shuffle(len(clocks), func(i, j int) { clocks[i], clocks[j] = clocks[j], clocks[i] })
	return clocks
}

// TestListingMatchesRender is the cache-validity property. Random sequences
// of PutUpload (replace, rename-collision, a file over a directory), Delete
// and Mkdir run over nested directories with dated and zero-MTime entries;
// on even seeds the FS is case-insensitive and paths are spelled in either
// case, so one directory is written and listed under several aliases. After
// each step the directories around the change, the changed path and one
// more are listed at every clock a body could turn at — each entry's
// MTime±180d and 1ns either side, in random order, so a body cached at one
// clock is asked for at the others — and every kind's Listing must equal a
// fresh render of the tree. No cache entry may outlive its directory.
func TestListingMatchesRender(t *testing.T) {
	base := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := randomTree(rng, base)
		fs.CaseInsensitive = seed%2 == 0
		alias := func(p string) string {
			if fs.CaseInsensitive && rng.Intn(2) == 0 {
				return strings.ToUpper(p)
			}
			return p
		}
		for step := 0; step < 40; step++ {
			paths := treePaths(fs)
			var dirs, all []string
			for p, n := range paths {
				all = append(all, p)
				if n.IsDir {
					dirs = append(dirs, p)
				}
			}
			sort.Strings(dirs)
			sort.Strings(all)
			dir := dirs[rng.Intn(len(dirs))]
			name := []string{"f0", "f1", "f2", "d0", "d1"}[rng.Intn(5)]
			target := path.Join(dir, name)
			switch op := rng.Intn(6); op {
			case 0, 1:
				fs.PutUpload(path.Join(alias(dir), name), []byte("x"), Perm644, op == 0, "", false)
			case 2:
				target = all[rng.Intn(len(all))]
				fs.Delete(alias(target))
			case 3:
				// A file replaces a directory, subtree and all.
				if len(dirs) > 1 {
					target = dirs[1+rng.Intn(len(dirs)-1)]
					parent, base := path.Split(target)
					fs.PutUpload(alias(parent)+base, []byte("x"), Perm644, true, "", false)
				}
			default:
				fs.Mkdir(path.Join(alias(dir), name), Perm755)
			}

			paths = treePaths(fs)
			live := make(map[*Node]bool, len(paths))
			for _, n := range paths {
				live[n] = true
			}
			for n := range fs.listings {
				if !live[n] || !n.IsDir {
					t.Fatalf("seed %d step %d: a listing outlives %q", seed, step, n.Name)
				}
			}
			parent := path.Dir(target)
			check := []string{target, parent, path.Dir(parent), all[rng.Intn(len(all))]}
			for _, p := range check {
				n := paths[p]
				if n == nil {
					if _, err := fs.Listing(alias(p), ListUnix, base); err == nil {
						t.Fatalf("seed %d step %d: Listing of missing %s succeeded", seed, step, p)
					}
					continue
				}
				entries := []*Node{n}
				if n.IsDir {
					entries = n.Children()
				}
				for _, now := range edgeClocks(rng, entries, base) {
					for _, kind := range listKinds {
						want := freshBody(n, kind, now)
						got, err := fs.Listing(alias(p), kind, now)
						if err != nil || !bytes.Equal(got, want) {
							t.Fatalf("seed %d step %d: Listing(%s, %d, %v) =\n%s%v\nwant\n%s", seed, step, p, kind, now, got, err, want)
						}
					}
				}
			}
		}
	}
}

// TestListingTracksWrites runs the writes a served host sees — mkdir,
// upload, rename-collision upload, nested delete, rmdir — over a warm
// cache. After each, every touched directory's four bodies must equal a
// fresh render, and the ls -l link counts must follow the child counts.
func TestListingTracksWrites(t *testing.T) {
	now := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	fs := datedTree(2)
	touched := []string{"/", "/pub", "/incoming"}
	step := func(name string) {
		t.Helper()
		for _, p := range touched {
			for _, kind := range listKinds {
				got, err := fs.Listing(p, kind, now)
				if want := freshBody(fs.Lookup(p), kind, now); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("after %s: Listing(%s, %d) =\n%s%v\nwant\n%s", name, p, kind, got, err, want)
				}
			}
		}
	}
	links := func(dir, name string) string {
		t.Helper()
		body, err := fs.Listing(dir, ListUnix, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(body), "\r\n") {
			if f := strings.Fields(line); len(f) > 1 && f[len(f)-1] == name {
				return f[1]
			}
		}
		t.Fatalf("Listing(%s) has no %s", dir, name)
		return ""
	}
	mustLinks := func(dir, name, want string) {
		t.Helper()
		if got := links(dir, name); got != want {
			t.Fatalf("%s/%s shows %s links, want %s", dir, name, got, want)
		}
	}
	step("seed")

	if _, err := fs.Mkdir("/incoming/drop", Perm755); err != nil {
		t.Fatal(err)
	}
	touched = append(touched, "/incoming/drop")
	step("mkdir")
	mustLinks("/", "incoming", "3")
	mustLinks("/incoming", "drop", "2")

	if _, err := fs.PutUpload("/incoming/drop/a.txt", []byte("abc"), Perm644, true, "ftp", true); err != nil {
		t.Fatal(err)
	}
	step("upload")
	mustLinks("/incoming", "drop", "3")

	if _, err := fs.PutUpload("/incoming/drop/a.txt", []byte("xyz"), Perm644, false, "", false); err != nil {
		t.Fatal(err)
	}
	step("upload-rename")
	mustLinks("/incoming", "drop", "4")

	for _, p := range []string{"/incoming/drop/a.txt.1", "/incoming/drop/a.txt"} {
		if err := fs.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	step("delete")
	mustLinks("/incoming", "drop", "2")

	if err := fs.Delete("/incoming/drop"); err != nil {
		t.Fatal(err)
	}
	touched = touched[:len(touched)-1]
	step("rmdir")
	mustLinks("/", "incoming", "2")
	if _, err := fs.Listing("/incoming/drop", ListUnix, now); err == nil {
		t.Fatal("Listing of a removed directory succeeded")
	}
}

// TestWritesStampMTime checks that every node a write creates is dated
// within the write and carries its upload attribution.
func TestWritesStampMTime(t *testing.T) {
	fs := datedTree(0)
	for _, w := range []struct {
		path  string
		write func() (*Node, error)
	}{
		{"/incoming/drop", func() (*Node, error) { return fs.Mkdir("/incoming/drop", Perm755) }},
		{"/incoming/drop/a.txt", func() (*Node, error) {
			return fs.PutUpload("/incoming/drop/a.txt", []byte("abc"), Perm644, true, "ftp", true)
		}},
		{"/incoming/drop/a.txt.1", func() (*Node, error) {
			return fs.PutUpload("/incoming/drop/a.txt", []byte("xyz"), Perm644, false, "", false)
		}},
	} {
		before := time.Now()
		n, err := w.write()
		after := time.Now()
		if err != nil {
			t.Fatalf("%s: %v", w.path, err)
		}
		if n.MTime.Before(before) || n.MTime.After(after) {
			t.Fatalf("%s: MTime %v outside [%v, %v]", w.path, n.MTime, before, after)
		}
		if fs.Lookup(w.path) != n {
			t.Fatalf("%s does not resolve to the node written", w.path)
		}
	}
	if n := fs.Lookup("/incoming/drop/a.txt"); string(n.Content) != "abc" || !n.AnonUpload || n.Owner != "ftp" {
		t.Fatalf("uploaded node = %+v", n)
	}
}

// TestListingHitAllocs holds a cache hit to zero allocations, under the
// stored spelling of a path and, on a case-insensitive FS, another one.
func TestListingHitAllocs(t *testing.T) {
	fs := datedTree(512)
	fs.CaseInsensitive = true
	now := time.Now()
	want, err := fs.Listing("/pub", ListUnix, now)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/pub", "/PUB"} {
		allocs := testing.AllocsPerRun(100, func() {
			if got, _ := fs.Listing(p, ListUnix, now); &got[0] != &want[0] {
				t.Fatalf("hit on %s returned a different body", p)
			}
		})
		if allocs != 0 {
			t.Fatalf("a cached Listing of %s allocates %.1f times", p, allocs)
		}
	}
}

// TestLookupAllocs holds Lookup to zero allocations, the case-insensitive
// fallback included.
func TestLookupAllocs(t *testing.T) {
	fs := datedTree(512)
	for _, ci := range []bool{false, true} {
		fs.CaseInsensitive = ci
		p := "/pub/file123.bin"
		if ci {
			p = "/PUB/File123.BIN"
		}
		allocs := testing.AllocsPerRun(100, func() {
			if fs.Lookup(p) == nil {
				t.Fatalf("Lookup(%s) found nothing", p)
			}
		})
		if allocs != 0 {
			t.Fatalf("Lookup(%s) allocates %.1f times", p, allocs)
		}
	}
}

// TestFSConcurrent hammers one FS from many goroutines writing, looking up
// and listing one directory and its parent; run under -race it guards the
// lock discipline of the tree and its listing cache.
func TestFSConcurrent(t *testing.T) {
	fs := datedTree(8)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				p := fmt.Sprintf("/incoming/w%d-%d", w, i)
				if _, err := fs.PutUpload(p, []byte("x"), Perm644, true, "", false); err != nil {
					done <- err
					return
				}
				fs.Lookup(p)
				for _, dir := range []string{"/", "/incoming", "/pub"} {
					if _, err := fs.Listing(dir, listKinds[i%len(listKinds)], time.Now()); err != nil {
						done <- err
						return
					}
				}
				if i%2 == 0 {
					if err := fs.Delete(p); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	now := time.Now()
	for _, dir := range []string{"/", "/incoming", "/pub"} {
		got, err := fs.Listing(dir, ListUnix, now)
		if want := freshBody(fs.Lookup(dir), ListUnix, now); err != nil || !bytes.Equal(got, want) {
			t.Errorf("final Listing(%s) =\n%s%v\nwant\n%s", dir, got, err, want)
		}
	}
}

// BenchmarkListing serves a 512-entry directory's Unix LIST body: hit is a
// cached Listing, render the fresh render an uncached LIST of the same
// directory pays.
func BenchmarkListing(b *testing.B) {
	fs := datedTree(512)
	now := time.Now()
	body, err := fs.Listing("/pub", ListUnix, now)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fs.Listing("/pub", ListUnix, now); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("render", func(b *testing.B) {
		entries := fs.Lookup("/pub").Children()
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		buf := make([]byte, 0, len(body))
		for i := 0; i < b.N; i++ {
			buf = appendBody(buf[:0], entries, ListUnix, now)
		}
	})
}
