package ftpserver

import (
	"bytes"
	"fmt"
	"io"
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
// host whose listings the FS can cache.
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

// TestListingConcurrent serves / and /pub to LISTing sessions while other
// sessions STOR and DELE in /pub and /incoming. Under the race detector
// (make race-server) it guards the lock discipline of the tree and its
// listing cache: every render reads child counts that writers change. Every
// body a reader gets must list its names in order, /pub's must hold each
// seeded line, and once the writers are done a LIST of each directory must
// equal a fresh render.
func TestListingConcurrent(t *testing.T) {
	fs := datedFS(64)
	cfg := anonConfig()
	cfg.Driver = fs
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	now := time.Now()
	seeded := strings.Split(strings.TrimSuffix(string(vfs.AppendListing(nil, fs.Lookup("/pub").Children(), vfs.StyleUnix, now)), "\r\n"), "\r\n")

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
				dir := []string{"/", "/pub"}[i%2]
				body, err := env.transfer(c, "LIST", dir, nil)
				if err != nil {
					errs <- err
					return
				}
				lines := strings.Split(strings.TrimSuffix(string(body), "\r\n"), "\r\n")
				names := make([]string, len(lines))
				have := make(map[string]bool, len(lines))
				for j, l := range lines {
					names[j] = l[strings.LastIndexByte(l, ' ')+1:]
					have[l] = true
				}
				if !sort.StringsAreSorted(names) {
					errs <- fmt.Errorf("LIST %s out of order: %v", dir, names)
					return
				}
				if dir == "/" {
					if strings.Join(names, ",") != "incoming,pub" {
						errs <- fmt.Errorf("LIST / = %v", names)
						return
					}
					continue
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
		children := fs.Lookup(dir).Children()
		if want := vfs.AppendListing(nil, children, vfs.StyleUnix, time.Now()); !bytes.Equal(body, want) {
			t.Errorf("final LIST %s =\n%s\nwant\n%s", dir, body, want)
		}
	}
}

// renderFresh renders dir's body for verb straight from the tree, bypassing
// the FS listing cache.
func renderFresh(fs *vfs.FS, dir, verb string, now time.Time) []byte {
	children := fs.Lookup(dir).Children()
	switch verb {
	case "NLST":
		return vfs.AppendNameList(nil, children)
	case "MLSD":
		return vfs.AppendMLSDListing(nil, children, now)
	}
	return vfs.AppendListing(nil, children, vfs.StyleUnix, now)
}

// TestDriverEquivalence drives one operation sequence through a server and
// demands that what it serves equals what its tree holds: after every step
// each touched directory's LIST, NLST and MLSD bodies, served from the FS
// listing cache, must equal a fresh render of the directory, uploaded mtimes
// and link counts included. Every upload and directory must be dated within
// the command that made it, and each refused write must leave the tree as
// it was.
func TestDriverEquivalence(t *testing.T) {
	fs := datedFS(3)
	cfg := anonConfig()
	cfg.Driver = fs
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)

	touched := []string{"/", "/pub", "/incoming"}
	step := func(name string) {
		t.Helper()
		for _, dir := range touched {
			for _, verb := range []string{"LIST", "NLST", "MLSD"} {
				body, err := env.transfer(c, verb, dir, nil)
				if err != nil {
					t.Fatalf("after %s: %v", name, err)
				}
				if want := renderFresh(fs, dir, verb, time.Now()); !bytes.Equal(body, want) {
					t.Errorf("after %s: %s %s =\n%s\nwant\n%s", name, verb, dir, body, want)
				}
			}
		}
	}
	// stamped runs a write and checks the node at p is dated within it.
	stamped := func(p string, write func() error) {
		t.Helper()
		before := time.Now()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		after := time.Now()
		n := fs.Lookup(p)
		if n == nil {
			t.Fatalf("%s: not in the tree", p)
		}
		if n.MTime.Before(before) || n.MTime.After(after) {
			t.Fatalf("%s: MTime %v outside [%v, %v]", p, n.MTime, before, after)
		}
	}
	cmd := func(verb, arg string, code int) error {
		if r, err := c.Cmd(verb, arg); err != nil || r.Code != code {
			return fmt.Errorf("%s %s = %v %v, want %d", verb, arg, r, err, code)
		}
		return nil
	}
	names := func(dir string) string {
		body, err := env.transfer(c, "NLST", dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(strings.TrimSuffix(string(body), "\r\n"), "\r\n", ",")
	}

	if got := names("/"); got != "incoming,pub" {
		t.Fatalf("root listing = %s", got)
	}
	if got := names("/pub"); got != "file000.bin,file001.bin,file002.bin" {
		t.Fatalf("/pub listing = %s", got)
	}
	if err := cmd("LIST", "/nope", ftp.CodeFileUnavailable); err != nil {
		t.Fatal(err)
	}
	step("seed")

	stamped("/incoming/drop", func() error { return cmd("MKD", "/incoming/drop", ftp.CodePathCreated) })
	touched = append(touched, "/incoming/drop")
	step("mkdir")

	stamped("/incoming/drop/a.txt", func() error {
		_, err := env.transfer(c, "STOR", "/incoming/drop/a.txt", []byte("abc"))
		return err
	})
	if n := fs.Lookup("/incoming/drop/a.txt"); string(n.Content) != "abc" || !n.AnonUpload {
		t.Fatalf("stored node = %+v", n)
	}
	stamped("/incoming/drop/b.txt", func() error {
		_, err := env.transfer(c, "STOR", "/incoming/drop/b.txt", []byte("xyz"))
		return err
	})
	if got := names("/incoming/drop"); got != "a.txt,b.txt" {
		t.Fatalf("after stores = %s", got)
	}
	step("store")

	if err := cmd("DELE", "/incoming/drop/b.txt", ftp.CodeFileOK); err != nil {
		t.Fatal(err)
	}
	if err := cmd("DELE", "/incoming/drop/b.txt", ftp.CodeFileUnavailable); err != nil {
		t.Fatal(err)
	}
	if _, err := env.transfer(c, "STOR", "/no/such/dir/f", []byte("x")); err == nil {
		t.Fatal("STOR under a missing parent succeeded")
	}
	step("delete")

	stamped("/incoming/sub", func() error { return cmd("MKD", "/incoming/sub", ftp.CodePathCreated) })
	stamped("/incoming/sub/x", func() error {
		_, err := env.transfer(c, "STOR", "/incoming/sub/x", []byte("x"))
		return err
	})
	if err := cmd("RMD", "/incoming/sub", ftp.CodeFileUnavailable); err != nil {
		t.Fatal(err)
	}
	touched = append(touched, "/incoming/sub")
	step("nested")

	for _, p := range []string{"/incoming/sub/x", "/incoming/drop/a.txt"} {
		if err := cmd("DELE", p, ftp.CodeFileOK); err != nil {
			t.Fatal(err)
		}
	}
	step("empty-dir")

	if err := cmd("RMD", "/incoming/sub", ftp.CodeFileOK); err != nil {
		t.Fatal(err)
	}
	touched = touched[:len(touched)-1]
	step("rmdir")
}

// TestMemDriverListSorted checks that the in-memory tree a server runs on
// serves a directory's names sorted whatever order they were stored in, and
// that a delete drops the name from the listing the FS has cached.
func TestMemDriverListSorted(t *testing.T) {
	fs := datedFS(0)
	cfg := anonConfig()
	cfg.Driver = fs
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)
	names := func() string {
		t.Helper()
		body, err := env.transfer(c, "NLST", "/incoming", nil)
		if err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(strings.TrimSuffix(string(body), "\r\n"), "\r\n", ",")
	}
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := env.transfer(c, "STOR", "/incoming/"+name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := names(); got != "alpha,mid,zeta" {
		t.Fatalf("listing = %s", got)
	}
	// The cached listing must be dropped by the delete.
	if r, err := c.Cmd("DELE", "/incoming/mid"); err != nil || r.Code != ftp.CodeFileOK {
		t.Fatalf("DELE: %v %v", r, err)
	}
	if got := names(); got != "alpha,zeta" {
		t.Fatalf("listing after delete = %s", got)
	}
}
