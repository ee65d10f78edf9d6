package simnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// pipeBufSize is the per-direction buffer capacity. Buffering (unlike
// net.Pipe's rendezvous semantics) lets a writer run ahead of a slow reader,
// which is how kernel TCP behaves and what keeps thousands of concurrent
// simulated sessions cheap. See BenchmarkAblationPipe for the measured gap.
const pipeBufSize = 64 * 1024

// ErrTimeout is returned (wrapped in net.OpError-compatible form) when a
// deadline expires.
var ErrTimeout = errors.New("simnet: i/o timeout")

// timeoutError adapts ErrTimeout to the net.Error interface expected by
// callers that check Timeout().
type timeoutError struct{}

func (timeoutError) Error() string   { return "simnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// pipeBufs recycles queue buffers between pipes. A halfPipe holds one only
// while bytes are queued, so idle control connections hold nothing and a
// fresh data connection reuses a buffer a drained one gave back.
var pipeBufs = sync.Pool{New: func() any { return new([]byte) }}

// halfPipe is one direction of a duplex connection: a bounded byte queue
// with blocking reads/writes, close semantics, and deadline support.
type halfPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	// buf[off:] is the queue. buf is taken from pipeBufs by the first
	// write into an empty pipe and given back by the read that drains it;
	// nil while nothing is queued.
	buf    *[]byte
	off    int
	closed bool // write side closed: reads drain then EOF, writes fail

	readDeadline  deadline
	writeDeadline deadline
}

func newHalfPipe() *halfPipe {
	h := &halfPipe{}
	h.cond = sync.NewCond(&h.mu)
	h.readDeadline.wake = h.cond.Broadcast
	h.writeDeadline.wake = h.cond.Broadcast
	return h
}

// queued reports the number of bytes waiting to be read.
func (h *halfPipe) queued() int {
	if h.buf == nil {
		return 0
	}
	return len(*h.buf) - h.off
}

// deadline manages a single settable deadline; when it fires it wakes
// blocked goroutines so they can observe expiry. Its timer is created once
// and re-armed with Reset, since ftp.Conn moves the deadline on every line.
type deadline struct {
	t     time.Time
	timer *time.Timer
	wake  func()
}

func (d *deadline) set(t time.Time) {
	d.stop()
	d.t = t
	if t.IsZero() {
		return
	}
	dur := time.Until(t)
	switch {
	case dur <= 0:
		d.wake()
	case d.timer == nil:
		d.timer = time.AfterFunc(dur, d.wake)
	default:
		d.timer.Reset(dur)
	}
}

// stop cancels a pending wake-up without clearing the deadline itself.
// On close, a stopped timer is released from the runtime timer heap
// immediately, instead of pinning the pipe (via the wake closure) until the
// deadline would have fired. A wake-up already under way is only a
// spurious Broadcast: waiters re-check their condition.
func (d *deadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
	}
}

func (d *deadline) expired() bool {
	return !d.t.IsZero() && !time.Now().Before(d.t)
}

func (h *halfPipe) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for len(p) > 0 {
		switch q := h.queued(); {
		case h.closed:
			return total, io.ErrClosedPipe
		case h.writeDeadline.expired():
			return total, timeoutError{}
		case q < pipeBufSize:
			n := min(pipeBufSize-q, len(p))
			if h.buf == nil {
				h.buf = pipeBufs.Get().(*[]byte)
			}
			b := *h.buf
			if cap(b)-len(b) < n && h.off > 0 {
				// Compact only when the tail lacks room: the queue
				// then stays within pipeBufSize of the front, so a
				// reader that never fully drains keeps the buffer
				// bounded.
				b = b[:copy(b, b[h.off:])]
				h.off = 0
			}
			*h.buf = append(b, p[:n]...)
			p = p[n:]
			total += n
			h.cond.Broadcast()
		default:
			h.cond.Wait()
		}
	}
	return total, nil
}

func (h *halfPipe) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch {
		case h.queued() > 0:
			n := copy(p, (*h.buf)[h.off:])
			h.off += n
			if h.off == len(*h.buf) {
				*h.buf = (*h.buf)[:0]
				pipeBufs.Put(h.buf)
				h.buf, h.off = nil, 0
			}
			h.cond.Broadcast()
			return n, nil
		case h.closed:
			return 0, io.EOF
		case h.readDeadline.expired():
			return 0, timeoutError{}
		default:
			h.cond.Wait()
		}
	}
}

func (h *halfPipe) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	// Blocked goroutines observe closed before any deadline check, so the
	// pending wake-ups are no longer needed.
	h.readDeadline.stop()
	h.writeDeadline.stop()
	h.cond.Broadcast()
}

func (h *halfPipe) setReadDeadline(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.readDeadline.set(t)
}

func (h *halfPipe) setWriteDeadline(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.writeDeadline.set(t)
}

// Conn is one endpoint of a simulated TCP connection. It implements
// net.Conn.
type Conn struct {
	rd     *halfPipe // data flowing toward this endpoint
	wr     *halfPipe // data flowing away from this endpoint
	local  Addr
	remote Addr

	closeOnce sync.Once
	onClose   func()
}

var _ net.Conn = (*Conn)(nil)

// NewConnPair builds both endpoints of a connection between two addresses.
func NewConnPair(client, server Addr) (clientEnd, serverEnd *Conn) {
	toServer := newHalfPipe()
	toClient := newHalfPipe()
	clientEnd = &Conn{rd: toClient, wr: toServer, local: client, remote: server}
	serverEnd = &Conn{rd: toServer, wr: toClient, local: server, remote: client}
	return clientEnd, serverEnd
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.rd.read(p) }

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Close tears down both directions, like a TCP RST|FIN from this side.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.rd.close()
		c.wr.close()
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}
