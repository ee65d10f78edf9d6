package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func newTestPair() (*Conn, *Conn) {
	return NewConnPair(Addr{IP: 1, Port: 1000}, Addr{IP: 2, Port: 21})
}

// TestPipeBufferHeldOnlyWhileQueued: a write into an empty pipe takes a
// buffer, a partial read keeps it, the read that drains gives it back, and
// the next write takes one again.
func TestPipeBufferHeldOnlyWhileQueued(t *testing.T) {
	h := newHalfPipe()
	if h.buf != nil {
		t.Fatal("new pipe holds a buffer")
	}
	p := make([]byte, 16)
	for round := 0; round < 3; round++ {
		msg := fmt.Sprintf("round %d payload", round)
		if _, err := h.write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		if h.buf == nil {
			t.Fatalf("round %d: write into an empty pipe holds no buffer", round)
		}
		n, _ := h.read(p[:4])
		if h.buf == nil || h.queued() != len(msg)-n {
			t.Fatalf("round %d: partial read released the buffer or lost bytes", round)
		}
		got := string(p[:n])
		n, _ = h.read(p)
		got += string(p[:n])
		if got != msg {
			t.Fatalf("round %d: read %q, want %q", round, got, msg)
		}
		if h.buf != nil || h.off != 0 {
			t.Fatalf("round %d: drained pipe still holds a buffer", round)
		}
	}
}

// TestPipeCloseDrainsThenEOF: bytes queued before the writer closes are
// still delivered, then reads see EOF.
func TestPipeCloseDrainsThenEOF(t *testing.T) {
	c, s := newTestPair()
	payload := bytes.Repeat([]byte("0123456789"), 1000)
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.Close()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes after close, want %d", len(got), len(payload))
	}
	if n, err := s.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("read after drain = %d, %v; want 0, EOF", n, err)
	}
}

// TestPipeWriteAfterCloseFails: neither end can write once either closes.
func TestPipeWriteAfterCloseFails(t *testing.T) {
	c, s := newTestPair()
	c.Close()
	if _, err := c.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write on closed end: %v", err)
	}
	if _, err := s.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write toward closed end: %v", err)
	}
	if c.wr.buf != nil || c.rd.buf != nil {
		t.Fatal("failed writes took a buffer")
	}
}

// TestPipeStreamingReaderStaysBounded: a reader that always leaves bytes
// queued never lets the pipe release its buffer, so only compaction keeps
// it from growing without bound.
func TestPipeStreamingReaderStaysBounded(t *testing.T) {
	h := newHalfPipe()
	var next, want byte
	chunk := make([]byte, pipeBufSize)
	p := make([]byte, pipeBufSize)
	for round := 0; round < 2000; round++ {
		n := pipeBufSize - h.queued()
		if round%3 == 0 {
			n = n/2 + 1
		}
		for i := 0; i < n; i++ {
			chunk[i] = next
			next++
		}
		if _, err := h.write(chunk[:n]); err != nil {
			t.Fatal(err)
		}
		// Read between a quarter and all-but-one of what is queued.
		q := h.queued()
		r := q/4 + (round*7919)%(q-q/4)
		if r >= q {
			r = q - 1
		}
		got, _ := h.read(p[:r])
		for i := 0; i < got; i++ {
			if p[i] != want {
				t.Fatalf("round %d: byte %d = %d, want %d", round, i, p[i], want)
			}
			want++
		}
		if h.buf == nil {
			t.Fatalf("round %d: pipe with %d queued bytes holds no buffer", round, h.queued())
		}
		if c := cap(*h.buf); c > 2*pipeBufSize {
			t.Fatalf("round %d: cap(buf) = %d, want <= %d", round, c, 2*pipeBufSize)
		}
	}
}

// TestDeadlineResetCycles: 10k set/clear cycles reuse one timer, the last
// deadline still fires, and no goroutine outlives the connection.
func TestDeadlineResetCycles(t *testing.T) {
	base := runtime.NumGoroutine()
	c, s := newTestPair()
	far := time.Now().Add(time.Hour)
	for i := 0; i < 10_000; i++ {
		c.SetReadDeadline(far)
		c.SetReadDeadline(time.Time{})
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.SetReadDeadline(far)
		c.SetReadDeadline(time.Time{})
	}); allocs != 0 {
		t.Errorf("deadline set/clear allocates %.1f times per cycle", allocs)
	}
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read after last deadline: %v, want a timeout", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline fired after %v", el)
	}
	c.Close()
	s.Close()
	// A goroutine's exit fires no event a test can wait on, so this polls
	// the count, with a one-second bound, until it is back at baseline.
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 100 {
			t.Fatalf("goroutines: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPooledBuffersKeepStreamsApart: concurrent connections that drain and
// refill constantly trade buffers through the pool; each must still read
// exactly its own byte stream. A buffer released while still referenced
// would mix streams.
func TestPooledBuffersKeepStreamsApart(t *testing.T) {
	const conns, total = 8, 1 << 20
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for id := 0; id < conns; id++ {
		c, s := newTestPair()
		wg.Add(2)
		go func(id int) {
			defer wg.Done()
			defer c.Close()
			chunk := make([]byte, 1+id*997)
			for sent := 0; sent < total; {
				n := min(len(chunk), total-sent)
				for i := 0; i < n; i++ {
					chunk[i] = byte(id + sent + i)
				}
				if _, err := c.Write(chunk[:n]); err != nil {
					errs <- err
					return
				}
				sent += n
			}
		}(id)
		go func(id int) {
			defer wg.Done()
			defer s.Close()
			p := make([]byte, 512+id*331)
			got := 0
			for {
				n, err := s.Read(p)
				for i := 0; i < n; i++ {
					if p[i] != byte(id+got+i) {
						errs <- fmt.Errorf("conn %d: byte %d = %d, want %d", id, got+i, p[i], byte(id+got+i))
						return
					}
				}
				got += n
				if err == io.EOF {
					break
				}
				if err != nil {
					errs <- err
					return
				}
			}
			if got != total {
				errs <- fmt.Errorf("conn %d: read %d bytes, want %d", id, got, total)
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
