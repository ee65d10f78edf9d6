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
}

func (c *fakeConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *fakeConn) wasClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func TestGovernorCaps(t *testing.T) {
	g := NewGovernor(2, 0, 0)
	defer g.Close()
	a, ok := g.Acquire("1.1.1.1", &fakeConn{})
	if !ok {
		t.Fatal("first acquire refused")
	}
	if _, ok := g.Acquire("2.2.2.2", &fakeConn{}); !ok {
		t.Fatal("second acquire refused")
	}
	if _, ok := g.Acquire("3.3.3.3", &fakeConn{}); ok {
		t.Fatal("over-cap acquire admitted")
	}
	g.Release(a)
	if _, ok := g.Acquire("3.3.3.3", &fakeConn{}); !ok {
		t.Fatal("post-release acquire refused")
	}
	if got := g.Active(); got != 2 {
		t.Fatalf("Active = %d, want 2", got)
	}
}

func TestGovernorPerIPCap(t *testing.T) {
	g := NewGovernor(0, 1, 0)
	defer g.Close()
	a, ok := g.Acquire("9.9.9.9", &fakeConn{})
	if !ok {
		t.Fatal("first acquire refused")
	}
	if _, ok := g.Acquire("9.9.9.9", &fakeConn{}); ok {
		t.Fatal("same-IP second acquire admitted")
	}
	if _, ok := g.Acquire("8.8.8.8", &fakeConn{}); !ok {
		t.Fatal("other-IP acquire refused")
	}
	g.Release(a)
	if _, ok := g.Acquire("9.9.9.9", &fakeConn{}); !ok {
		t.Fatal("same-IP acquire after release refused")
	}
}

func TestGovernorReapsIdle(t *testing.T) {
	g := NewGovernor(10, 0, 20*time.Millisecond)
	defer g.Close()
	idle := &fakeConn{}
	busy := &fakeConn{}
	ics, ok := g.Acquire("1.1.1.1", idle)
	if !ok {
		t.Fatal("acquire refused")
	}
	bcs, ok := g.Acquire("2.2.2.2", busy)
	if !ok {
		t.Fatal("acquire refused")
	}
	_ = ics
	// Keep one session active past several idle windows; the other goes
	// quiet and must be reaped.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !idle.wasClosed() {
		bcs.touch()
		time.Sleep(5 * time.Millisecond)
	}
	if !idle.wasClosed() {
		t.Fatal("idle connection was not reaped")
	}
	if busy.wasClosed() {
		t.Fatal("active connection was reaped")
	}
}

func TestGovernorClosedRefuses(t *testing.T) {
	g := NewGovernor(10, 0, time.Minute)
	if _, ok := g.Acquire("1.1.1.1", &fakeConn{}); !ok {
		t.Fatal("acquire refused before close")
	}
	g.Close()
	if _, ok := g.Acquire("2.2.2.2", &fakeConn{}); ok {
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

	// Free a slot and verify admission recovers.
	if _, err := c1.Cmd("QUIT", ""); err != nil {
		t.Fatal(err)
	}
	ok := false
	for i := 0; i < 50; i++ { // the session goroutine releases async
		c4, r := env.dial(t)
		if r.Code == ftp.CodeReady {
			login(t, c4)
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Fatal("slot not reusable after QUIT")
	}
}

func TestServerPerIPCap(t *testing.T) {
	env, _ := governedEnv(t, func(cfg *Config) {
		cfg.MaxConnsPerIP = 1
		cfg.IdleTimeout = time.Minute
	})
	c1, _ := env.dial(t)
	login(t, c1)
	if _, r := env.dial(t); r.Code != ftp.CodeServiceNotAvail {
		t.Fatalf("same-IP second conn = %+v, want 421", r)
	}
	// A different source address is admitted.
	otherIP := simnet.MustParseIP("4.3.2.1")
	nc, err := env.nw.DialFrom(otherIP, env.serverIP, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := ftp.NewConn(nc)
	c.Timeout = 5 * time.Second
	if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeReady {
		t.Fatalf("other-IP banner: %v %v", r, err)
	}
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
		default:
			if r, err := busy.Cmd("NOOP", ""); err != nil || r.Code != ftp.CodeOK {
				t.Fatalf("busy NOOP: %v %v", r, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestTokenBucketTake(t *testing.T) {
	b := NewTokenBucket(1000, 1000)
	if w := b.Take(1000); w != 0 {
		t.Fatalf("burst take waited %v", w)
	}
	// The bucket is now empty: 500 more tokens ≈ 500ms of debt.
	w := b.Take(500)
	if w < 400*time.Millisecond || w > 600*time.Millisecond {
		t.Fatalf("debt wait = %v, want ~500ms", w)
	}
	// Unlimited and nil buckets never wait.
	if w := NewTokenBucket(0, 10).Take(1 << 30); w != 0 {
		t.Fatalf("unlimited bucket waited %v", w)
	}
	var nilBucket *TokenBucket
	if w := nilBucket.Take(100); w != 0 {
		t.Fatalf("nil bucket waited %v", w)
	}
	if !nilBucket.TryTake(100) {
		t.Fatal("nil bucket refused TryTake")
	}
}

func TestTokenBucketTryTake(t *testing.T) {
	b := NewTokenBucket(10, 5)
	if !b.TryTake(5) {
		t.Fatal("burst TryTake refused")
	}
	if b.TryTake(1) {
		t.Fatal("empty bucket granted TryTake")
	}
	time.Sleep(200 * time.Millisecond) // ~2 tokens refill
	if !b.TryTake(1) {
		t.Fatal("refilled bucket refused TryTake")
	}
}

// TestServerBandwidthShaping transfers a file through a tightly shaped
// session and checks the transfer takes at least the shaped duration.
func TestServerBandwidthShaping(t *testing.T) {
	env, _ := governedEnv(t, func(cfg *Config) {
		cfg.MaxConns = 4
		cfg.IdleTimeout = time.Minute
		cfg.AnonWritable = true
		cfg.BandwidthPerSession = 64 << 10 // burst = rate = 64KiB
	})
	c, _ := env.dial(t)
	login(t, c)

	// 128 KiB at 64 KiB/s with a 64 KiB burst ⇒ ≥ ~1s of induced sleep.
	dc := env.openPassive(t, c)
	r, err := c.Cmd("STOR", "/incoming/pad.bin")
	if err != nil || r.Code != ftp.CodeDataOpen {
		t.Fatalf("STOR: %v %v", r, err)
	}
	start := time.Now()
	if _, err := dc.Write(make([]byte, 128<<10)); err != nil {
		t.Fatal(err)
	}
	dc.Close()
	if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeTransferOK {
		t.Fatalf("STOR completion: %v %v", r, err)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Fatalf("shaped 128KiB upload finished in %v, want ≥500ms", elapsed)
	}
}

// TestGovernorExpiryClosesDataConn: idle expiry tears down the session's
// open data conn with its control conn, and a data conn registered after
// expiry is closed at once.
func TestGovernorExpiryClosesDataConn(t *testing.T) {
	g := NewGovernor(0, 0, 20*time.Millisecond)
	ctrl, data := &fakeConn{}, &fakeConn{}
	cs, ok := g.Acquire("1.1.1.1", ctrl)
	if !ok {
		t.Fatal("acquire refused")
	}
	defer g.Release(cs)
	cs.setData(data)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !(ctrl.wasClosed() && data.wasClosed()) {
		time.Sleep(5 * time.Millisecond)
	}
	if !ctrl.wasClosed() || !data.wasClosed() {
		t.Fatalf("after expiry: control closed %v, data closed %v", ctrl.wasClosed(), data.wasClosed())
	}
	late := &fakeConn{}
	cs.setData(late)
	if !late.wasClosed() {
		t.Fatal("data conn registered after expiry left open")
	}
}

// TestGovernorUncappedKeepsNoPerIPState: a governor without caps admits
// everyone and keeps no per-address map.
func TestGovernorUncappedKeepsNoPerIPState(t *testing.T) {
	g := NewGovernor(0, 0, time.Minute)
	var held []*connState
	for i := 0; i < 100; i++ {
		cs, ok := g.Acquire("7.7.7.7", &fakeConn{})
		if !ok {
			t.Fatalf("uncapped governor shed connection %d", i)
		}
		held = append(held, cs)
	}
	if g.perIP != nil {
		t.Error("uncapped governor allocated a per-IP map")
	}
	for _, cs := range held {
		g.Release(cs)
	}
	if got := g.Active(); got != 0 {
		t.Fatalf("Active = %d after releasing every session, want 0", got)
	}
}

// waitGauge polls g until it reads want or the deadline passes.
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
