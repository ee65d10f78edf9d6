package ftpserver

import (
	"net"
	"sync"
	"time"
)

// TokenBucket is a classic rate limiter: tokens refill continuously at rate
// per second up to burst, and Take may drive the balance negative, returning
// how long the caller must wait before proceeding. That form suits bandwidth
// shaping — a transfer writes a chunk, learns its debt, and sleeps it off —
// while TryTake suits operation caps that reject instead of queueing.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a bucket refilling at rate tokens/second with the
// given burst capacity. A rate of zero or less means unlimited: Take never
// waits and TryTake never fails.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// refillLocked advances the balance to now. Caller holds mu.
func (b *TokenBucket) refillLocked(now time.Time) {
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens += elapsed.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// Take consumes n tokens unconditionally and returns how long the caller
// must wait for the balance to recover to zero — the shaping discipline:
// debt is always granted, and the debtor sleeps.
func (b *TokenBucket) Take(n int64) time.Duration {
	if b == nil || b.rate <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(time.Now())
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// TryTake consumes n tokens only if the full amount is available now.
func (b *TokenBucket) TryTake(n int64) bool {
	if b == nil || b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(time.Now())
	if b.tokens < float64(n) {
		return false
	}
	b.tokens -= float64(n)
	return true
}

// shapeChunk bounds how many bytes one shaped I/O consumes at once, so the
// induced sleeps stay short and pause/resume granularity stays fine even at
// low per-session rates.
const shapeChunk = 32 << 10

// shapedConn wraps a data connection with per-session and global token
// buckets. Either bucket may be nil (no cap at that scope). Writes and reads
// are chunked; the debt from both buckets is served with one sleep per
// chunk, so a session is throttled by whichever scope is tighter, and each
// chunk stamps the session active so idle expiry spares live transfers.
// Sessions embed one and reuse it for every transfer.
type shapedConn struct {
	net.Conn
	session *TokenBucket
	global  *TokenBucket
	cs      *connState
}

// pay charges n bytes to both buckets and sleeps off the larger debt.
func (c *shapedConn) pay(n int) {
	wait := c.session.Take(int64(n))
	if w := c.global.Take(int64(n)); w > wait {
		wait = w
	}
	if wait > 0 {
		time.Sleep(wait)
	}
	c.cs.touch()
}

func (c *shapedConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > shapeChunk {
			chunk = chunk[:shapeChunk]
		}
		c.pay(len(chunk))
		n, err := c.Conn.Write(chunk)
		total += n
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

func (c *shapedConn) Read(p []byte) (int, error) {
	if len(p) > shapeChunk {
		p = p[:shapeChunk]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.pay(n)
	}
	return n, err
}
