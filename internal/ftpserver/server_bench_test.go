package ftpserver

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ftpcloud/internal/ftp"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
)

// benchServer builds a capped, metrics-instrumented server on the test
// tree — the configuration the 10k-session target is specified against.
func benchServer(b *testing.B, maxConns int) (*Server, *obs.Registry) {
	b.Helper()
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         testFS(),
		HostName:       "bench.example.org",
		AllowAnonymous: true,
		MaxConns:       maxConns,
		IdleTimeout:    2 * time.Minute,
		Metrics:        reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv, reg
}

// benchSession is one ramped-up, logged-in control connection.
type benchSession struct {
	nc net.Conn
	c  *ftp.Conn
}

func rampSession(nc net.Conn) (*benchSession, error) {
	c := ftp.NewConn(nc)
	c.Timeout = 30 * time.Second
	if _, err := c.ReadReply(); err != nil {
		return nil, fmt.Errorf("banner: %w", err)
	}
	if _, err := c.Cmd("USER", "anonymous"); err != nil {
		return nil, fmt.Errorf("USER: %w", err)
	}
	r, err := c.Cmd("PASS", "bench@example.org")
	if err != nil {
		return nil, fmt.Errorf("PASS: %w", err)
	}
	if r.Code != ftp.CodeLoggedIn {
		return nil, fmt.Errorf("login rejected: %d %s", r.Code, r.Text())
	}
	return &benchSession{nc: nc, c: c}, nil
}

// runConcurrent ramps sessions up outside the timer, then times b.N
// four-command cycles spread across all of them, every session active
// concurrently. dial must yield a fresh control connection per call.
func runConcurrent(b *testing.B, sessions int, reg *obs.Registry, dial func(i int) (net.Conn, error)) {
	// Ramp with bounded dial concurrency so 10k simultaneous connects do
	// not themselves become the bottleneck (or a listen-backlog storm).
	sem := make(chan struct{}, 256)
	ramped := make([]*benchSession, sessions)
	var wg sync.WaitGroup
	var rampErr atomic.Value
	for i := range ramped {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			nc, err := dial(i)
			if err != nil {
				rampErr.Store(fmt.Errorf("dial %d: %w", i, err))
				return
			}
			s, err := rampSession(nc)
			if err != nil {
				nc.Close()
				rampErr.Store(fmt.Errorf("ramp %d: %w", i, err))
				return
			}
			ramped[i] = s
		}(i)
	}
	wg.Wait()
	if err := rampErr.Load(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, s := range ramped {
			s.nc.Close()
		}
	}()

	cmds := [][2]string{{"NOOP", ""}, {"PWD", ""}, {"TYPE", "I"}, {"SIZE", "/pub/hello.txt"}}
	jobs := make(chan int, sessions)
	var benchErr atomic.Value
	var done sync.WaitGroup
	for _, s := range ramped {
		done.Add(1)
		go func(s *benchSession) {
			defer done.Done()
			for j := range jobs {
				cmd := cmds[j%len(cmds)]
				if _, err := s.c.Cmd(cmd[0], cmd[1]); err != nil {
					benchErr.Store(fmt.Errorf("%s: %w", cmd[0], err))
					return
				}
			}
		}(s)
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		jobs <- i
	}
	close(jobs)
	done.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if err := benchErr.Load(); err != nil {
		b.Fatal(err)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "cmds/s")
	}
	if sheds := reg.Counter("ftpserver.shed").Load(); sheds != 0 {
		b.Fatalf("governor shed %d connections during the benchmark", sheds)
	}
}

// tcpSessionBudget bounds real-TCP session counts by the process FD limit:
// each in-process session costs two descriptors (client + server end), and
// listeners, sockets mid-accept, and test plumbing need headroom.
func tcpSessionBudget() (int, error) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 0, err
	}
	return (int(lim.Cur) - 300) / 2, nil
}

// BenchmarkServerConcurrentSessions holds the named session count open —
// every session logged in and issuing commands — and measures aggregate
// command throughput. The simnet variant isolates engine cost (no kernel
// sockets, no FD ceiling); the tcp variant exercises the same engine over
// loopback TCP, with the session count clamped to the process FD budget
// when the limit demands it.
func BenchmarkServerConcurrentSessions(b *testing.B) {
	for _, tier := range []struct {
		name     string
		sessions int
	}{
		{"sessions-100", 100},
		{"sessions-1k", 1000},
		{"sessions-10k", 10000},
	} {
		b.Run(tier.name, func(b *testing.B) {
			b.Run("simnet", func(b *testing.B) {
				srv, reg := benchServer(b, tier.sessions+10)
				serverIP := simnet.MustParseIP("5.6.7.8")
				provider := simnet.NewStaticProvider()
				provider.Add(serverIP, 21, srv.SimHandler())
				nw := simnet.NewNetwork(provider)
				runConcurrent(b, tier.sessions, reg, func(i int) (net.Conn, error) {
					// Distinct client addresses, as a real crawl sees.
					ip := simnet.IPFromOctets(10, byte(i>>16), byte(i>>8), byte(i))
					return nw.DialFrom(ip, serverIP, 21)
				})
			})
			b.Run("tcp", func(b *testing.B) {
				sessions := tier.sessions
				budget, err := tcpSessionBudget()
				if err != nil {
					b.Fatal(err)
				}
				if sessions > budget {
					b.Logf("clamping %d sessions to %d (RLIMIT_NOFILE budget)", sessions, budget)
					sessions = budget
				}
				srv, reg := benchServer(b, sessions+10)
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				go srv.Serve(l)
				addr := l.Addr().String()
				runConcurrent(b, sessions, reg, func(int) (net.Conn, error) {
					return net.DialTimeout("tcp", addr, 30*time.Second)
				})
			})
		})
	}
}
