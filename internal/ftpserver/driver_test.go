package ftpserver

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/ftp"
	"ftpcloud/internal/vfs"
)

// drainNames lists a path and returns the sorted entry names.
func drainNames(t *testing.T, d Driver, p string) []string {
	t.Helper()
	entries, err := d.List(p)
	if err != nil {
		t.Fatalf("List(%s): %v", p, err)
	}
	names := make([]string, len(entries))
	for i, n := range entries {
		names[i] = n.Name
	}
	sort.Strings(names)
	return names
}

// listKinds are the four LIST-family bodies a directory is served as.
var listKinds = [...]ListKind{ListUnix, ListDOS, ListNames, ListMLSD}

// renderBody renders kind's body for p afresh from d.List.
func renderBody(t *testing.T, d Driver, p string, kind ListKind, now time.Time) string {
	t.Helper()
	entries, err := d.List(p)
	if err != nil {
		t.Fatalf("List(%s): %v", p, err)
	}
	return string(appendBody(nil, entries, kind, now))
}

// TestDriverEquivalence runs the same operation sequence against the
// vfs-backed and in-memory drivers and demands identical observable
// behavior — the contract that lets the benchmark swap MemDriver in. After
// every step each touched directory must render the same four LIST-family
// bodies on both drivers, uploaded mtimes and link counts included.
func TestDriverEquivalence(t *testing.T) {
	// A fixed clock far from the wall clock: uploads render with their
	// date and year, not hh:mm.
	now := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	// MLSD dates to the second: start both runs early in one wall-clock
	// second, so no second (or minute, or day) turns between their stamps.
	if left := time.Second - time.Duration(time.Now().Nanosecond()); left < 300*time.Millisecond {
		time.Sleep(left)
	}
	drivers := []struct {
		name string
		d    Driver
	}{{"vfs", NewVFSDriver(testFS())}, {"mem", MemDriverFromFS(testFS())}}
	bodies := make(map[string][]stepBody)
	for _, dr := range drivers {
		t.Run(dr.name, func(t *testing.T) { bodies[dr.name] = driverSequence(t, dr.d, now) })
	}
	want, got := bodies["vfs"], bodies["mem"]
	if len(got) != len(want) {
		t.Fatalf("mem rendered %d bodies, vfs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: mem renders\n%s\nvfs renders\n%s", want[i].label, got[i].body, want[i].body)
		}
	}
}

// stepBody is one directory's body of one kind after one step.
type stepBody struct{ label, body string }

// driverSequence runs TestDriverEquivalence's operations on d and returns
// every touched directory's bodies at now after each step. A driver with a
// cached Listing must serve each of them too.
func driverSequence(t *testing.T, d Driver, now time.Time) []stepBody {
	var out []stepBody
	touched := []string{"/", "/pub", "/incoming"}
	step := func(name string) {
		t.Helper()
		for _, p := range touched {
			for _, kind := range listKinds {
				body := renderBody(t, d, p, kind, now)
				out = append(out, stepBody{fmt.Sprintf("after %s: %s kind %d", name, p, kind), body})
				if l, ok := d.(lister); ok {
					if cached, err := l.Listing(p, kind, now); err != nil || string(cached) != body {
						t.Fatalf("after %s: Listing(%s, %d) = %q, %v; want %q", name, p, kind, cached, err, body)
					}
				}
			}
		}
	}
	// stamped runs a write and checks the node it made is dated within it.
	stamped := func(p string, write func() (*vfs.Node, error)) {
		t.Helper()
		before := time.Now()
		n, err := write()
		after := time.Now()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if n.MTime.Before(before) || n.MTime.After(after) {
			t.Fatalf("%s: MTime %v outside [%v, %v]", p, n.MTime, before, after)
		}
	}

	if got := drainNames(t, d, "/"); strings.Join(got, ",") != "incoming,pub" {
		t.Fatalf("root listing = %v", got)
	}
	if got := drainNames(t, d, "/pub"); strings.Join(got, ",") != "hello.txt,secret.key" {
		t.Fatalf("/pub listing = %v", got)
	}
	n := d.Lookup("/pub/hello.txt")
	if n == nil || n.IsDir || string(n.Content) != "hello world" {
		t.Fatalf("Lookup(/pub/hello.txt) = %+v", n)
	}
	if d.Lookup("/nope") != nil {
		t.Fatal("Lookup(/nope) found a node")
	}
	// Listing a file yields the file itself, like ls(1).
	if got := drainNames(t, d, "/pub/hello.txt"); strings.Join(got, ",") != "hello.txt" {
		t.Fatalf("file listing = %v", got)
	}
	if _, err := d.List("/nope"); err == nil {
		t.Fatal("List of a missing path succeeded")
	}
	step("seed")

	stamped("/incoming/drop", func() (*vfs.Node, error) { return d.Mkdir("/incoming/drop", vfs.Perm755) })
	if n := d.Lookup("/incoming/drop"); n == nil || !n.IsDir {
		t.Fatalf("Mkdir result not visible: %+v", n)
	}
	touched = append(touched, "/incoming/drop")
	step("mkdir")

	stamped("/incoming/drop/a.txt", func() (*vfs.Node, error) {
		return d.Store("/incoming/drop/a.txt", []byte("abc"), vfs.Perm644, true, "ftp", true)
	})
	n = d.Lookup("/incoming/drop/a.txt")
	if n == nil || string(n.Content) != "abc" || !n.AnonUpload || n.Owner != "ftp" {
		t.Fatalf("stored node = %+v", n)
	}
	step("store")

	// replace=false must rename instead of clobbering.
	stamped("/incoming/drop/a.txt.1", func() (*vfs.Node, error) {
		return d.Store("/incoming/drop/a.txt", []byte("xyz"), vfs.Perm644, false, "", false)
	})
	if got := drainNames(t, d, "/incoming/drop"); strings.Join(got, ",") != "a.txt,a.txt.1" {
		t.Fatalf("after collision = %v", got)
	}
	step("store-rename")

	if err := d.Delete("/incoming/drop/a.txt.1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := d.Delete("/incoming/drop/a.txt.1"); err == nil {
		t.Fatal("double Delete succeeded")
	}
	// Storing under a missing parent fails on both drivers.
	if _, err := d.Store("/no/such/dir/f", []byte("x"), vfs.Perm644, true, "", false); err == nil {
		t.Fatal("Store under missing parent succeeded")
	}
	step("delete")

	stamped("/pub/sub", func() (*vfs.Node, error) { return d.Mkdir("/pub/sub", vfs.Perm755) })
	stamped("/pub/sub/x", func() (*vfs.Node, error) {
		return d.Store("/pub/sub/x", []byte("x"), vfs.Perm644, true, "", false)
	})
	if err := d.Delete("/pub/sub"); err == nil {
		t.Fatal("Delete of a non-empty directory succeeded")
	}
	touched = append(touched, "/pub/sub")
	step("nested")

	if err := d.Delete("/pub/sub/x"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("/incoming/drop/a.txt"); err != nil {
		t.Fatal(err)
	}
	step("empty-dir")

	if err := d.Delete("/pub/sub"); err != nil {
		t.Fatal(err)
	}
	touched = touched[:len(touched)-1]
	step("rmdir")
	return out
}

func TestMemDriverListSorted(t *testing.T) {
	d := NewMemDriver()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := d.Store("/"+name, []byte("x"), vfs.Perm644, true, "", false); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainNames(t, d, "/"); strings.Join(got, ",") != "alpha,mid,zeta" {
		t.Fatalf("listing = %v", got)
	}
	// The cached sorted listing must be invalidated by mutation.
	if err := d.Delete("/mid"); err != nil {
		t.Fatal(err)
	}
	if got := drainNames(t, d, "/"); strings.Join(got, ",") != "alpha,zeta" {
		t.Fatalf("listing after delete = %v", got)
	}
}

func TestQuotaDriverByteCap(t *testing.T) {
	d := NewQuotaDriver(NewMemDriver(), 10, 0)
	if _, err := d.Store("/a", []byte("123456"), vfs.Perm644, true, "", false); err != nil {
		t.Fatalf("first store: %v", err)
	}
	if _, err := d.Store("/b", []byte("123456"), vfs.Perm644, true, "", false); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota store: %v", err)
	}
	// Replacing an existing file credits the old size first.
	if _, err := d.Store("/a", []byte("1234567890"), vfs.Perm644, true, "", false); err != nil {
		t.Fatalf("replace store: %v", err)
	}
	if got := d.UsedBytes(); got != 10 {
		t.Fatalf("UsedBytes = %d, want 10", got)
	}
	// Deleting refunds the quota.
	if err := d.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if got := d.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes after delete = %d, want 0", got)
	}
	if _, err := d.Store("/b", []byte("123456"), vfs.Perm644, true, "", false); err != nil {
		t.Fatalf("post-refund store: %v", err)
	}
}

func TestQuotaDriverEntryCap(t *testing.T) {
	d := NewQuotaDriver(NewMemDriver(), 0, 2)
	if _, err := d.Store("/a", []byte("x"), vfs.Perm644, true, "", false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Mkdir("/dir", vfs.Perm755); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Store("/c", []byte("x"), vfs.Perm644, true, "", false); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-entry store: %v", err)
	}
	if _, err := d.Mkdir("/dir2", vfs.Perm755); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-entry mkdir: %v", err)
	}
}

// TestQuotaDriverRollback checks that a store the inner driver rejects does
// not leak charged quota.
func TestQuotaDriverRollback(t *testing.T) {
	d := NewQuotaDriver(NewMemDriver(), 100, 10)
	if _, err := d.Store("/no/parent", []byte("12345"), vfs.Perm644, true, "", false); err == nil {
		t.Fatal("store under missing parent succeeded")
	}
	if got := d.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes after failed store = %d, want 0", got)
	}
	if _, err := d.Store("/ok", make([]byte, 100), vfs.Perm644, true, "", false); err != nil {
		t.Fatalf("full-quota store after rollback: %v", err)
	}
}

func TestRateLimitedDriver(t *testing.T) {
	// 1 op/s with burst 2: two ops pass, the third is rejected.
	d := NewRateLimitedDriver(NewMemDriver(), 1)
	d.ops = NewTokenBucket(1, 2)
	for i := 0; i < 2; i++ {
		if _, err := d.List("/"); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if _, err := d.List("/"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-rate list: %v", err)
	}
	if _, err := d.Store("/f", []byte("x"), vfs.Perm644, true, "", false); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-rate store: %v", err)
	}
	// Lookup is deliberately unmetered: the session loop calls it on
	// nearly every command and it never touches storage.
	if d.Lookup("/") == nil {
		t.Fatal("Lookup was rate-limited")
	}
}

// TestServerQuotaReply drives a quota-capped server end to end: the upload
// that breaches the cap must answer 552, and the 226 success reply must not
// be sent.
func TestServerQuotaReply(t *testing.T) {
	cfg := anonConfig()
	cfg.Driver = NewQuotaDriver(MemDriverFromFS(testFS()), 40, 0)
	cfg.AnonWritable = true
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)

	store := func(name, content string) ftp.Reply {
		dc := env.openPassive(t, c)
		r, err := c.Cmd("STOR", "/incoming/"+name)
		if err != nil || r.Code != ftp.CodeDataOpen {
			t.Fatalf("STOR open: %v %v", r, err)
		}
		if _, err := dc.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
		dc.Close()
		r, err = c.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := store("small.bin", strings.Repeat("a", 30)); r.Code != ftp.CodeTransferOK {
		t.Fatalf("in-quota upload = %+v", r)
	}
	r := store("big.bin", strings.Repeat("b", 30))
	if r.Code != ftp.CodeExceededStorage {
		t.Fatalf("over-quota upload = %+v, want 552", r)
	}
	// The rejected file must not exist.
	if n := cfg.Driver.Lookup("/incoming/big.bin"); n != nil {
		t.Fatalf("rejected upload visible: %+v", n)
	}
}

// TestServerRateLimitReply checks the 450 mapping for a rate-limited LIST.
func TestServerRateLimitReply(t *testing.T) {
	rl := NewRateLimitedDriver(MemDriverFromFS(testFS()), 1)
	rl.ops = NewTokenBucket(1, 1)
	cfg := anonConfig()
	cfg.Driver = rl
	env := newEnv(t, cfg)
	c, _ := env.dial(t)
	login(t, c)

	dc := env.openPassive(t, c)
	r, err := c.Cmd("LIST", "")
	if err != nil || r.Code != ftp.CodeDataOpen {
		t.Fatalf("first LIST: %v %v", r, err)
	}
	drainConn(t, dc)
	if r, err = c.ReadReply(); err != nil || r.Code != ftp.CodeTransferOK {
		t.Fatalf("first LIST completion: %v %v", r, err)
	}

	// Burst exhausted: the next LIST is refused before opening data.
	env.openPassive(t, c)
	r, err = c.Cmd("LIST", "")
	if err != nil || r.Code != ftp.CodeFileBusy {
		t.Fatalf("rate-limited LIST = %v %v, want 450", r, err)
	}
}

func drainConn(t *testing.T, dc interface{ Read([]byte) (int, error) }) {
	t.Helper()
	buf := make([]byte, 4096)
	for {
		if _, err := dc.Read(buf); err != nil {
			return
		}
	}
}

// TestMemDriverConcurrent hammers one MemDriver from many goroutines; run
// under -race this guards the lock discipline and the listing cache.
func TestMemDriverConcurrent(t *testing.T) {
	d := NewMemDriver()
	if _, err := d.Mkdir("/dir", vfs.Perm755); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				p := fmt.Sprintf("/dir/w%d-%d", w, i)
				if _, err := d.Store(p, []byte("x"), vfs.Perm644, true, "", false); err != nil {
					done <- err
					return
				}
				d.Lookup(p)
				if _, err := d.List("/dir"); err != nil {
					done <- err
					return
				}
				if _, err := d.Listing("/", ListUnix, time.Now()); err != nil {
					done <- err
					return
				}
				if i%2 == 0 {
					if err := d.Delete(p); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	deadline := time.After(30 * time.Second)
	for w := 0; w < 8; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent workers timed out")
		}
	}
}
