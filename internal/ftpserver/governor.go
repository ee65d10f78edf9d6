package ftpserver

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// connState is the governor's per-connection record: the raw conn (so idle
// expiry can tear it down), the session's open data conn (torn down with
// it, so a transfer stalled on a peer that never reads cannot pin the
// session), an activity stamp the session updates with one atomic store per
// command or transfer chunk, and the session's idle timer. Sessions never
// arm per-read deadlines — at 10k concurrent sessions, resetting a runtime
// timer per command is measurable; one timer per session that fires once per
// idle window and re-arms for the remainder is not.
type connState struct {
	g          *Governor
	nc         net.Conn
	lastActive atomic.Int64 // unix nanos

	mu       sync.Mutex
	timer    *time.Timer
	data     net.Conn // open data conn, nil between transfers
	expired  bool
	released bool
}

// touch stamps the connection as active now.
func (cs *connState) touch() { cs.lastActive.Store(time.Now().UnixNano()) }

// stampChunk bounds how many bytes one data-conn write sends between
// activity stamps, so a long write into a slow reader keeps stamping while
// it drains.
const stampChunk = 32 << 10

// stampedConn is a data conn that stamps its session active on every chunk
// it moves, so idle expiry spares a transfer that keeps moving and reaps
// only one stalled on its peer. Sessions embed one and reuse it for every
// transfer.
type stampedConn struct {
	net.Conn
	cs *connState
}

func (c *stampedConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p[:min(len(p), stampChunk)]
		c.cs.touch()
		n, err := c.Conn.Write(chunk)
		total += n
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

func (c *stampedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.cs.touch()
	}
	return n, err
}

// setData registers dc as the session's open data conn (nil clears it). A
// session that already expired gets dc closed at once.
func (cs *connState) setData(dc net.Conn) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.expired && dc != nil {
		dc.Close()
		return
	}
	cs.data = dc
}

// idleCheck runs when the session's idle timer fires: a session active
// within the window re-arms for the remainder, an idle one is expired — its
// control and data conns closed, so blocked reads and writes fail and the
// session unwinds through its normal teardown.
func (cs *connState) idleCheck() {
	idle := cs.g.IdleTimeout
	cs.mu.Lock()
	if cs.released {
		cs.mu.Unlock()
		return
	}
	if rest := time.Until(time.Unix(0, cs.lastActive.Load()).Add(idle)); rest > 0 {
		cs.timer.Reset(rest)
		cs.mu.Unlock()
		return
	}
	cs.expired = true
	data := cs.data
	cs.mu.Unlock()
	// Close outside the lock: Close may synchronize with a session blocked
	// mid-read on the same connection.
	cs.nc.Close()
	if data != nil {
		data.Close()
	}
}

// Governor enforces a connection cap and idle timeouts for a server: a
// concurrent-connection ceiling and a per-session idle timer that closes
// connections idle past the deadline. Connections over the cap are shed
// politely (the server sends a 421 and closes) instead of being accepted and
// starved. A governor runs no goroutine of its own.
type Governor struct {
	// MaxConns caps concurrent connections; zero means unlimited.
	MaxConns int
	// IdleTimeout closes connections with no activity for this long;
	// zero disables idle expiry.
	IdleTimeout time.Duration

	mu     sync.Mutex
	total  int
	closed bool
}

// NewGovernor builds a governor with the given limits.
func NewGovernor(maxConns int, idle time.Duration) *Governor {
	return &Governor{MaxConns: maxConns, IdleTimeout: idle}
}

// Active returns the number of connections currently admitted.
func (g *Governor) Active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.total
}

// Acquire admits a connection, arming its idle timer, or reports that it
// must be shed. The returned state must be passed to Release when the
// session ends.
func (g *Governor) Acquire(nc net.Conn) (*connState, bool) {
	g.mu.Lock()
	if g.closed || (g.MaxConns > 0 && g.total >= g.MaxConns) {
		g.mu.Unlock()
		return nil, false
	}
	g.total++
	g.mu.Unlock()

	cs := &connState{g: g, nc: nc}
	cs.touch()
	if g.IdleTimeout > 0 {
		// Armed under cs.mu so a timer firing at once still sees it set.
		cs.mu.Lock()
		cs.timer = time.AfterFunc(g.IdleTimeout, cs.idleCheck)
		cs.mu.Unlock()
	}
	return cs, true
}

// Release returns a connection's slot and disarms its idle timer.
func (g *Governor) Release(cs *connState) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	cs.released = true
	if cs.timer != nil {
		cs.timer.Stop()
	}
	cs.mu.Unlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	g.total--
}

// Close stops admission: later Acquire calls are shed. Open connections are
// left to their sessions, idle expiry included.
func (g *Governor) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
}
