package ftpserver

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ftpcloud/internal/ftp"
	"ftpcloud/internal/vfs"
)

// datedMTime dates every node of datedFS: old enough that ls -l prints its
// year, so a listing of the tree reads the same at any present-day clock.
var datedMTime = time.Date(2015, 3, 1, 10, 30, 0, 0, time.UTC)

// datedFS builds /pub with files entries and an empty world-writable
// /incoming, every node dated datedMTime — the shape of a served anonymous
// host whose listings MemDriver can cache.
func datedFS(files int) *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm755)
	root.MTime = datedMTime
	pub := root.Add(vfs.NewDir("pub", vfs.Perm755))
	pub.MTime = datedMTime
	for i := 0; i < files; i++ {
		f := pub.Add(vfs.NewFile(fmt.Sprintf("file%03d.bin", i), vfs.Perm644, int64(i)*7919))
		f.MTime = datedMTime
	}
	incoming := root.Add(vfs.NewDir("incoming", vfs.Perm777))
	incoming.MTime = datedMTime
	return vfs.New(root)
}

// randomTree seeds a small nested tree whose mtimes straddle base by up to
// 400 days either way; one node in five has a zero MTime.
func randomTree(rng *rand.Rand, base time.Time) *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm755)
	var fill func(dir *vfs.Node, depth int)
	fill = func(dir *vfs.Node, depth int) {
		for i := rng.Intn(5); i > 0; i-- {
			var n *vfs.Node
			if depth < 2 && rng.Intn(3) == 0 {
				n = vfs.NewDir(fmt.Sprintf("d%d", rng.Intn(3)), vfs.Perm755)
			} else {
				n = vfs.NewFile(fmt.Sprintf("f%d", rng.Intn(6)), vfs.Perm644, rng.Int63n(1<<20))
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
	return vfs.New(root)
}

// treePaths walks d's vfs tree — the children its directory nodes hold —
// and returns every path with its node.
func treePaths(d *MemDriver) map[string]*vfs.Node {
	out := make(map[string]*vfs.Node)
	d.Lookup("/").Walk("/", func(p string, n *vfs.Node) bool {
		out[p] = n
		return true
	})
	return out
}

// edgeClocks returns each entry's ±180-day recent-test boundaries and the
// instants 1ns either side, plus base and the wall clock, shuffled.
func edgeClocks(rng *rand.Rand, entries []*vfs.Node, base time.Time) []time.Time {
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

// TestMemDriverListingMatchesRender is the cache-validity property. Random
// sequences of Store (replace, rename-collision, a file over a directory),
// Delete and Mkdir run over nested directories with dated and zero-MTime
// entries. After each, the directories around the change and one more are
// listed at every clock a body could turn at — each entry's MTime±180d and
// 1ns either side, in random order, so a body cached at one clock is asked
// for at the others — and every kind's Listing must equal a fresh render of
// the directory's children. The driver's path index must match its tree.
func TestMemDriverListingMatchesRender(t *testing.T) {
	base := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := MemDriverFromFS(randomTree(rng, base))
		for step := 0; step < 40; step++ {
			paths := treePaths(d)
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
			target := joinPath(dir, []string{"f0", "f1", "f2", "d0", "d1"}[rng.Intn(5)])
			switch op := rng.Intn(5); op {
			case 0, 1:
				d.Store(target, []byte("x"), vfs.Perm644, op == 0, "", false)
			case 2:
				target = all[rng.Intn(len(all))]
				d.Delete(target)
			default:
				d.Mkdir(target, vfs.Perm755)
			}

			paths = treePaths(d)
			if len(paths) != len(d.nodes) {
				t.Fatalf("seed %d step %d: tree holds %d paths, index %d", seed, step, len(paths), len(d.nodes))
			}
			for p, n := range paths {
				if d.nodes[p] != n {
					t.Fatalf("seed %d step %d: index at %s is %+v, tree %+v", seed, step, p, d.nodes[p], n)
				}
			}
			parent, _ := splitPath(target)
			grand, _ := splitPath(parent)
			check := []string{parent, grand, all[rng.Intn(len(all))]}
			for _, p := range check {
				n := paths[p]
				if n == nil {
					continue
				}
				entries := []*vfs.Node{n}
				if n.IsDir {
					entries = n.Children()
				}
				listed, err := d.List(p)
				if err != nil || len(listed) != len(entries) {
					t.Fatalf("seed %d step %d: List(%s) = %d entries, %v; tree has %d", seed, step, p, len(listed), err, len(entries))
				}
				for _, now := range edgeClocks(rng, entries, base) {
					for _, kind := range listKinds {
						want := appendBody(nil, entries, kind, now)
						got, err := d.Listing(p, kind, now)
						if err != nil || !bytes.Equal(got, want) {
							t.Fatalf("seed %d step %d: Listing(%s, %d, %v) =\n%s%v\nwant\n%s", seed, step, p, kind, now, got, err, want)
						}
					}
				}
			}
		}
	}
}

// TestMemDriverListingHitAllocs holds a cache hit to zero allocations.
func TestMemDriverListingHitAllocs(t *testing.T) {
	d := MemDriverFromFS(datedFS(512))
	now := time.Now()
	want, err := d.Listing("/pub", ListUnix, now)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, _ := d.Listing("/pub", ListUnix, now); &got[0] != &want[0] {
			t.Fatal("hit returned a different body")
		}
	})
	if allocs != 0 {
		t.Fatalf("a cached Listing allocates %.1f times", allocs)
	}
}

// TestWrappedMemDriverChargesEveryList checks that a wrapped MemDriver
// stays on the List path: the wrappers do not forward Listing, so a
// rate-limited server spends a token on every LIST-family command, however
// cacheable the directory.
func TestWrappedMemDriverChargesEveryList(t *testing.T) {
	rl := NewRateLimitedDriver(MemDriverFromFS(datedFS(8)), 1)
	for _, w := range []Driver{rl, NewQuotaDriver(NewMemDriver(), 0, 0)} {
		if _, ok := w.(lister); ok {
			t.Fatalf("%T forwards Listing", w)
		}
	}
	rl.ops = NewTokenBucket(1e-9, 3)
	cfg := anonConfig()
	cfg.Driver = rl
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	for _, verb := range []string{"LIST", "NLST", "LIST"} {
		dc := env.openPassive(t, c)
		if r, err := c.Cmd(verb, "/pub"); err != nil || r.Code != ftp.CodeDataOpen {
			t.Fatalf("%s: %v %v", verb, r, err)
		}
		drainConn(t, dc)
		if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeTransferOK {
			t.Fatalf("%s completion: %v %v", verb, r, err)
		}
	}
	env.openPassive(t, c)
	if r, err := c.Cmd("LIST", "/pub"); err != nil || r.Code != ftp.CodeFileBusy {
		t.Fatalf("fourth listing = %v %v, want 450", r, err)
	}
}

// anonSession dials env's server and logs in anonymously, reporting
// failures instead of failing the test, for use off the test goroutine.
func (env *testEnv) anonSession() (*ftp.Conn, error) {
	nc, err := env.nw.DialFrom(env.clientIP, env.serverIP, 21)
	if err != nil {
		return nil, err
	}
	c := ftp.NewConn(nc)
	c.Timeout = 10 * time.Second
	if _, err := c.ReadReply(); err != nil {
		nc.Close()
		return nil, err
	}
	for _, cmd := range [][2]string{{"USER", "anonymous"}, {"PASS", "research@example.org"}} {
		if _, err := c.Cmd(cmd[0], cmd[1]); err != nil {
			nc.Close()
			return nil, err
		}
	}
	return c, nil
}

// transfer runs one data command over PASV: it sends upload, or reads the
// server's data when upload is nil, and returns what it read.
func (env *testEnv) transfer(c *ftp.Conn, verb, arg string, upload []byte) ([]byte, error) {
	r, err := c.Cmd("PASV", "")
	if err != nil || r.Code != ftp.CodePassive {
		return nil, fmt.Errorf("PASV: %v %v", r, err)
	}
	hp, err := ftp.ParsePASVReply(r.Text())
	if err != nil {
		return nil, err
	}
	dc, err := env.nw.Dial(env.clientIP, hp.Addr())
	if err != nil {
		return nil, err
	}
	defer dc.Close()
	if r, err := c.Cmd(verb, arg); err != nil || r.Code != ftp.CodeDataOpen {
		return nil, fmt.Errorf("%s %s: %v %v", verb, arg, r, err)
	}
	var got []byte
	if upload != nil {
		_, err = dc.Write(upload)
	} else {
		got, err = io.ReadAll(dc)
	}
	dc.Close()
	if err != nil {
		return nil, err
	}
	if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeTransferOK {
		return nil, fmt.Errorf("%s %s completion: %v %v", verb, arg, r, err)
	}
	return got, nil
}

// TestMemDriverListingConcurrent serves /pub to LISTing sessions while
// other sessions STOR and DELE in /pub and /incoming; under the race
// detector (make race-server) it guards the cache's lock discipline. Every
// body a reader gets must hold each seeded line, in name order, and once
// the writers are done a LIST must equal a fresh render.
func TestMemDriverListingConcurrent(t *testing.T) {
	md := MemDriverFromFS(datedFS(64))
	cfg := anonConfig()
	cfg.Driver = md
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	now := time.Now()
	seeded := strings.Split(strings.TrimSuffix(string(appendBody(nil, md.Lookup("/pub").Children(), ListUnix, now)), "\r\n"), "\r\n")

	const readers, writers, rounds = 4, 2, 25
	errs := make(chan error, readers+writers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := env.anonSession()
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				body, err := env.transfer(c, "LIST", "/pub", nil)
				if err != nil {
					errs <- err
					return
				}
				lines := strings.Split(strings.TrimSuffix(string(body), "\r\n"), "\r\n")
				names := make([]string, len(lines))
				for j, l := range lines {
					names[j] = l[strings.LastIndexByte(l, ' ')+1:]
				}
				if !sort.StringsAreSorted(names) {
					errs <- fmt.Errorf("LIST /pub out of order: %v", names)
					return
				}
				have := make(map[string]bool, len(lines))
				for _, l := range lines {
					have[l] = true
				}
				for _, l := range seeded {
					if !have[l] {
						errs <- fmt.Errorf("LIST /pub lacks seeded line %q", l)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := env.anonSession()
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				for _, dir := range []string{"/pub", "/incoming"} {
					p := fmt.Sprintf("%s/w%d-%02d.bin", dir, w, i)
					if _, err := env.transfer(c, "STOR", p, []byte("upload")); err != nil {
						errs <- err
						return
					}
					if i%2 == 0 {
						if r, err := c.Cmd("DELE", p); err != nil || r.Code != ftp.CodeFileOK {
							errs <- fmt.Errorf("DELE %s: %v %v", p, r, err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	c, _ := env.dial(t)
	login(t, c)
	for _, dir := range []string{"/", "/pub", "/incoming"} {
		body, err := env.transfer(c, "LIST", dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		children := md.Lookup(dir).Children()
		if want := appendBody(nil, children, ListUnix, time.Now()); !bytes.Equal(body, want) {
			t.Errorf("final LIST %s =\n%s\nwant\n%s", dir, body, want)
		}
	}
}

// BenchmarkMemDriverListing serves a 512-entry directory's Unix LIST body:
// hit is a cached Listing, render the fresh render an uncached LIST of the
// same directory pays.
func BenchmarkMemDriverListing(b *testing.B) {
	d := MemDriverFromFS(datedFS(512))
	now := time.Now()
	body, err := d.Listing("/pub", ListUnix, now)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Listing("/pub", ListUnix, now); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("render", func(b *testing.B) {
		entries, err := d.List("/pub")
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		buf := make([]byte, 0, len(body))
		for i := 0; i < b.N; i++ {
			buf = appendBody(buf[:0], entries, ListUnix, now)
		}
	})
}
