package ftpserver

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftpcloud/internal/ftp"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

// fakeConn is a net.Conn stub recording Close for idle-expiry tests.
type fakeConn struct {
	net.Conn
	mu     sync.Mutex
	closed bool
	done   chan struct{} // closed by the first Close
}

func (c *fakeConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.doneLocked())
	}
	return nil
}

func (c *fakeConn) doneLocked() chan struct{} {
	if c.done == nil {
		c.done = make(chan struct{})
	}
	return c.done
}

// closing returns a channel that is closed once c is.
func (c *fakeConn) closing() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doneLocked()
}

func (c *fakeConn) wasClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func TestGovernorCaps(t *testing.T) {
	g := NewGovernor(2, 0)
	defer g.Close()
	a, ok := g.Acquire(&fakeConn{})
	if !ok {
		t.Fatal("first acquire refused")
	}
	if _, ok := g.Acquire(&fakeConn{}); !ok {
		t.Fatal("second acquire refused")
	}
	if _, ok := g.Acquire(&fakeConn{}); ok {
		t.Fatal("over-cap acquire admitted")
	}
	g.Release(a)
	if _, ok := g.Acquire(&fakeConn{}); !ok {
		t.Fatal("post-release acquire refused")
	}
	if got := g.Active(); got != 2 {
		t.Fatalf("Active = %d, want 2", got)
	}
}

func TestGovernorReapsIdle(t *testing.T) {
	g := NewGovernor(10, 20*time.Millisecond)
	defer g.Close()
	idle := &fakeConn{}
	busy := &fakeConn{}
	ics, ok := g.Acquire(idle)
	if !ok {
		t.Fatal("acquire refused")
	}
	bcs, ok := g.Acquire(busy)
	if !ok {
		t.Fatal("acquire refused")
	}
	_ = ics
	// Keep one session active, touching it four times per idle window,
	// until the other, quiet one is reaped.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(2 * time.Second)
	for reaped := false; !reaped; {
		select {
		case <-idle.closing():
			reaped = true
		case <-tick.C:
			bcs.touch()
		case <-deadline:
			t.Fatal("idle connection was not reaped")
		}
	}
	if busy.wasClosed() {
		t.Fatal("active connection was reaped")
	}
}

func TestGovernorClosedRefuses(t *testing.T) {
	g := NewGovernor(10, time.Minute)
	if _, ok := g.Acquire(&fakeConn{}); !ok {
		t.Fatal("acquire refused before close")
	}
	g.Close()
	if _, ok := g.Acquire(&fakeConn{}); ok {
		t.Fatal("closed governor admitted a connection")
	}
}

// governedEnv builds a simnet-backed server with connection caps.
func governedEnv(t *testing.T, mutate func(*Config)) (*testEnv, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         testFS(),
		HostName:       "gov.example.org",
		AllowAnonymous: true,
		Metrics:        reg,
	}
	mutate(&cfg)
	return newEnv(t, cfg), reg
}

// TestServerShedsOverCap drives a MaxConns=2 server: the third concurrent
// connection gets a 421 and the shed counter moves; a slot freed by QUIT is
// reusable.
func TestServerShedsOverCap(t *testing.T) {
	env, reg := governedEnv(t, func(cfg *Config) {
		cfg.MaxConns = 2
		cfg.IdleTimeout = time.Minute
	})

	c1, _ := env.dial(t)
	login(t, c1)
	c2, _ := env.dial(t)
	login(t, c2)

	// Over cap: the banner slot carries the 421 and the conn closes.
	c3, r := env.dial(t)
	if r.Code != ftp.CodeServiceNotAvail || !strings.Contains(r.Text(), "Too many connections") {
		t.Fatalf("shed banner = %+v, want 421", r)
	}
	if _, err := c3.ReadReply(); err == nil {
		t.Fatal("shed connection stayed open")
	}
	if got := reg.Counter("ftpserver.shed").Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Free a slot and verify admission recovers. A session releases its
	// slot before it closes its connection, so c1's EOF is the release.
	if _, err := c1.Cmd("QUIT", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.ReadReply(); err == nil {
		t.Fatal("connection stayed open after QUIT")
	}
	c4, r := env.dial(t)
	if r.Code != ftp.CodeReady {
		t.Fatalf("slot not reusable after QUIT: banner %+v", r)
	}
	login(t, c4)
}

// TestServerReapsIdleSession checks idle expiry end to end on a capped
// server: a session that goes quiet is torn down by its idle timer (its
// blocked read fails), while a chatty one survives.
func TestServerReapsIdleSession(t *testing.T) {
	env, _ := governedEnv(t, func(cfg *Config) {
		cfg.MaxConns = 10
		cfg.IdleTimeout = 50 * time.Millisecond
	})
	idle, _ := env.dial(t)
	login(t, idle)
	busy, _ := env.dial(t)
	login(t, busy)

	// The idle conn must observe EOF/close within a few idle windows.
	done := make(chan error, 1)
	go func() {
		_, err := idle.ReadReply()
		done <- err
	}()
	// The busy session NOOPs five times per idle window until the idle
	// one's read fails.
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("idle session got a reply instead of teardown")
			}
			// The busy session is still serviceable.
			if r, err := busy.Cmd("NOOP", ""); err != nil || r.Code != ftp.CodeOK {
				t.Fatalf("busy session broken after reap: %v %v", r, err)
			}
			return
		case <-deadline:
			t.Fatal("idle session was not reaped")
		case <-tick.C:
			if r, err := busy.Cmd("NOOP", ""); err != nil || r.Code != ftp.CodeOK {
				t.Fatalf("busy NOOP: %v %v", r, err)
			}
		}
	}
}

// TestGovernorExpiryClosesDataConn: idle expiry tears down the session's
// open data conn with its control conn, and a data conn registered after
// expiry is closed at once.
func TestGovernorExpiryClosesDataConn(t *testing.T) {
	g := NewGovernor(0, 20*time.Millisecond)
	ctrl, data := &fakeConn{}, &fakeConn{}
	cs, ok := g.Acquire(ctrl)
	if !ok {
		t.Fatal("acquire refused")
	}
	defer g.Release(cs)
	cs.setData(data)
	deadline := time.After(2 * time.Second)
	for _, c := range []*fakeConn{ctrl, data} {
		select {
		case <-c.closing():
		case <-deadline:
			t.Fatalf("after expiry: control closed %v, data closed %v", ctrl.wasClosed(), data.wasClosed())
		}
	}
	late := &fakeConn{}
	cs.setData(late)
	if !late.wasClosed() {
		t.Fatal("data conn registered after expiry left open")
	}
}

// TestGovernorUncappedAdmitsAll: a governor without a cap admits everyone,
// and releasing every session brings Active back to zero.
func TestGovernorUncappedAdmitsAll(t *testing.T) {
	g := NewGovernor(0, time.Minute)
	var held []*connState
	for i := 0; i < 100; i++ {
		cs, ok := g.Acquire(&fakeConn{})
		if !ok {
			t.Fatalf("uncapped governor shed connection %d", i)
		}
		held = append(held, cs)
	}
	for _, cs := range held {
		g.Release(cs)
	}
	if got := g.Active(); got != 0 {
		t.Fatalf("Active = %d after releasing every session, want 0", got)
	}
}

// waitGauge polls g until it reads want or the deadline passes. A gauge
// sends no change notification, so polling it is how to wait on the state
// itself: the 5 ms sleep paces the reads, and the deadline only bounds a
// failure.
func waitGauge(t *testing.T, g *obs.Gauge, want int64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for g.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge = %d after %v, want %d", g.Load(), within, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerStalledDataConnReaped: a RETR into a passive data conn the
// client never reads blocks the session mid-write once the pipe buffer
// fills. Idle expiry must close the data conn too, so the session unwinds
// within a few idle windows instead of hanging forever.
func TestServerStalledDataConnReaped(t *testing.T) {
	root := vfs.NewDir("/", vfs.Perm755)
	root.Add(vfs.NewFileContent("big.bin", vfs.Perm644, make([]byte, 1<<20)))
	env, reg := governedEnv(t, func(cfg *Config) {
		cfg.Driver = vfs.New(root)
		cfg.MaxConns = 10
		cfg.IdleTimeout = 50 * time.Millisecond
	})
	c, _ := env.dial(t)
	login(t, c)
	env.openPassive(t, c) // never read
	if r, err := c.Cmd("RETR", "/big.bin"); err != nil || r.Code != ftp.CodeDataOpen {
		t.Fatalf("RETR: %v %v", r, err)
	}
	waitGauge(t, reg.Gauge("ftpserver.active"), 0, 2*time.Second)
	if _, err := c.ReadReply(); err == nil {
		// The abort reply may race the close; the conn must end next.
		if _, err := c.ReadReply(); err == nil {
			t.Fatal("control conn survived idle expiry")
		}
	}
}

// TestServerMovingTransferOutlivesIdle: a transfer that keeps moving
// outlives IdleTimeout. No command arrives while it runs, so only the data
// conn's per-chunk stamp keeps the session alive; STOR exercises the read
// side and RETR the chunked write into a slow reader.
func TestServerMovingTransferOutlivesIdle(t *testing.T) {
	const (
		idle  = 250 * time.Millisecond
		tick  = 10 * time.Millisecond
		ticks = 80 // over three idle windows
		step  = 16 << 10
	)
	root := vfs.NewDir("/", vfs.Perm755)
	root.Add(vfs.NewFileContent("big.bin", vfs.Perm644, make([]byte, ticks*step)))
	root.Add(vfs.NewDir("incoming", vfs.Perm777))
	env, _ := governedEnv(t, func(cfg *Config) {
		cfg.Driver = vfs.New(root)
		cfg.AnonWritable = true
		cfg.IdleTimeout = idle
	})
	for _, dir := range []string{"STOR", "RETR"} {
		t.Run(dir, func(t *testing.T) {
			c, _ := env.dial(t)
			login(t, c)
			dc := env.openPassive(t, c)
			path, want := "/big.bin", ticks*step
			if dir == "STOR" {
				path, want = "/incoming/up.bin", ticks<<10
			}
			if r, err := c.Cmd(dir, path); err != nil || r.Code != ftp.CodeDataOpen {
				t.Fatalf("%s: %v %v", dir, r, err)
			}
			// The ticker paces the transfer, and the wall-clock time it
			// takes is the input under test: one step every tick for over
			// three idle windows. A late tick only widens one gap; the
			// widest gap between stamps is two ticks (a 32 KiB write chunk
			// drains in two 16 KiB reads), so the session survives unless
			// a tick is over 230 ms late.
			pace := time.NewTicker(tick)
			defer pace.Stop()
			buf := make([]byte, step)
			moved := 0
			for i := 0; ; i++ {
				<-pace.C
				if dir == "STOR" {
					if i == ticks {
						dc.Close()
						break
					}
					n, err := dc.Write(buf[:1<<10])
					moved += n
					if err != nil {
						t.Fatalf("upload cut after %d bytes: %v", moved, err)
					}
					continue
				}
				n, err := dc.Read(buf)
				moved += n
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("download cut after %d bytes: %v", moved, err)
				}
			}
			if moved != want {
				t.Fatalf("moved %d bytes, want %d", moved, want)
			}
			if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeTransferOK {
				t.Fatalf("%s completion: %v %v", dir, r, err)
			}
			if r, err := c.Cmd("NOOP", ""); err != nil || r.Code != ftp.CodeOK {
				t.Fatalf("session reaped mid-transfer: %v %v", r, err)
			}
		})
	}
}

// TestUncappedServerReapsIdle: a server with no connection caps — the
// honeypot and world-host configuration — still expires idle sessions.
func TestUncappedServerReapsIdle(t *testing.T) {
	env, reg := governedEnv(t, func(cfg *Config) {
		cfg.IdleTimeout = 50 * time.Millisecond
	})
	c, _ := env.dial(t)
	login(t, c)
	done := make(chan error, 1)
	go func() {
		_, err := c.ReadReply()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("idle session got a reply instead of teardown")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("idle session on an uncapped server was not reaped")
	}
	waitGauge(t, reg.Gauge("ftpserver.active"), 0, 2*time.Second)
}

// TestSessionsLeaveNoGoroutines: 1,000 sessions across 100 servers, each
// with a passive LIST, must leave the goroutine count at its baseline — no
// per-server reaper, no leaked accept or timer goroutine.
func TestSessionsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	provider := simnet.NewStaticProvider()
	var ips []simnet.IP
	for i := 0; i < 100; i++ {
		ip := simnet.IP(uint64(simnet.MustParseIP("10.9.0.1")) + uint64(i))
		srv, err := New(Config{
			Pers:           personality.ByKey(personality.KeyProFTPD135),
			Driver:         testFS(),
			PublicIP:       ip,
			AllowAnonymous: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		provider.Add(ip, 21, srv.SimHandler())
		ips = append(ips, ip)
	}
	nw := simnet.NewNetwork(provider)
	client := simnet.MustParseIP(clientIPStr)
	var wg sync.WaitGroup
	errs := make(chan error, len(ips))
	for _, ip := range ips {
		wg.Add(1)
		go func(ip simnet.IP) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if err := listSession(nw, client, ip); err != nil {
					errs <- err
					return
				}
			}
		}(ip)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Nothing signals a goroutine's exit, so the count is polled: the
	// sleep paces the reads, and the deadline only bounds a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after 1,000 sessions, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// listSession runs one anonymous session with a passive LIST and a QUIT.
func listSession(nw *simnet.Network, client, server simnet.IP) error {
	nc, err := nw.DialFrom(client, server, 21)
	if err != nil {
		return err
	}
	defer nc.Close()
	c := ftp.NewConn(nc)
	c.Timeout = 5 * time.Second
	if _, err := c.ReadReply(); err != nil {
		return err
	}
	c.Cmd("USER", "anonymous")
	if r, err := c.Cmd("PASS", "x@x"); err != nil || r.Code != ftp.CodeLoggedIn {
		return fmt.Errorf("login: %v %v", r, err)
	}
	r, err := c.Cmd("PASV", "")
	if err != nil || r.Code != ftp.CodePassive {
		return fmt.Errorf("PASV: %v %v", r, err)
	}
	hp, err := ftp.ParsePASVReply(r.Text())
	if err != nil {
		return err
	}
	dc, err := nw.Dial(client, hp.Addr())
	if err != nil {
		return err
	}
	defer dc.Close()
	if r, err := c.Cmd("LIST", "/"); err != nil || !r.Preliminary() {
		return fmt.Errorf("LIST: %v %v", r, err)
	}
	if _, err := io.Copy(io.Discard, dc); err != nil {
		return err
	}
	if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeTransferOK {
		return fmt.Errorf("LIST completion: %v %v", r, err)
	}
	_, err = c.Cmd("QUIT", "")
	return err
}
