// Package identify is the census pipeline's middle stage: LZR-style
// service identification ("LZR: Identifying Unexpected Internet Services").
// Discovery only proves a port accepts connections; a large share of those
// endpoints speak something other than the expected protocol, or nothing at
// all. Burning a full enumeration slot — connection, banner timeout, login
// attempts, retries — on every such endpoint is the cost LZR eliminated:
// identify reads only the first response bytes off a fresh connection
// (waiting briefly for a server-first banner, then sending one minimal
// trigger for client-first protocols), fingerprints the protocol, and
// routes. FTP endpoints flow on to the enumerator fleet unchanged;
// everything else is recorded and shed after exactly one connection and at
// most one trigger round-trip.
package identify

import (
	"context"
	"net"
	"sync"
	"time"

	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// Dialer abstracts connection establishment, mirroring enumerator.Dialer so
// the stage runs over the simulated network or real sockets.
type Dialer interface {
	Dial(network, address string) (net.Conn, error)
}

// Defaults.
const (
	// DefaultBannerWait is how long identify waits for a server-first
	// banner before concluding the protocol is client-first (or silent)
	// and sending the trigger.
	DefaultBannerWait = 2 * time.Second
	// DefaultMaxBytes caps how much of the first response is read — LZR's
	// economy is reading a handshake, not a payload.
	DefaultMaxBytes = 256
)

// trigger is the one probe sent to endpoints that stay quiet: a minimal
// HTTP request. Client-first protocols answer it in kind (HTTP with a
// response line, TLS with an alert record), and anything that stays silent
// through both windows is shed as dead air.
var trigger = []byte("GET / HTTP/1.0\r\n\r\n")

// Config parameterizes identification.
type Config struct {
	// Dialer establishes connections. Required.
	Dialer Dialer
	// BannerWait bounds the wait for server-first bytes; zero means
	// DefaultBannerWait. The same window bounds the post-trigger read.
	BannerWait time.Duration
	// MaxBytes caps the first-response read; zero means DefaultMaxBytes.
	MaxBytes int
	// Metrics, when non-nil, records the stage's ledger: identify.dials,
	// identify.passed, identify.shed, identify.triggered,
	// identify.errors, and the identify.latency histogram.
	Metrics *obs.Registry
}

// Result is one endpoint's identification outcome.
type Result struct {
	// IP is the endpoint.
	IP string
	// Protocol is the sniffed wire protocol: ProtoFTP routes to the
	// enumerator, everything else is shed. ProtoNone covers silent
	// accepts and endpoints whose connection failed outright.
	Protocol fingerprint.Protocol
	// Banner holds the first response bytes (at most MaxBytes).
	Banner string
	// Triggered reports that the endpoint stayed quiet through the
	// banner window and was probed with the minimal trigger.
	Triggered bool
	// Err records a connection-level failure (dial error); the endpoint
	// is shed as ProtoNone.
	Err error
}

// Identify classifies one endpoint with a single connection: wait for a
// banner, else send the trigger, sniff whatever came back first. A cancelled
// ctx closes the connection, so the call returns at once; its result then
// says nothing about the endpoint, and Stage.Run drops it.
func Identify(ctx context.Context, cfg Config, ip string) Result {
	res := Result{IP: ip, Protocol: fingerprint.ProtoNone}
	wait := cfg.BannerWait
	if wait <= 0 {
		wait = DefaultBannerWait
	}
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}

	conn, err := cfg.Dialer.Dial("tcp", net.JoinHostPort(ip, "21"))
	if err != nil {
		res.Err = err
		return res
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()

	buf := make([]byte, maxBytes)
	conn.SetReadDeadline(time.Now().Add(wait))
	n, readErr := conn.Read(buf)
	if n == 0 {
		// Quiet so far: either client-first or dead air. One trigger
		// round-trip decides which — unless the peer already hung up.
		if readErr != nil && !isTimeout(readErr) {
			return res
		}
		res.Triggered = true
		if _, err := conn.Write(trigger); err != nil {
			return res
		}
		conn.SetReadDeadline(time.Now().Add(wait))
		n, _ = conn.Read(buf)
		if n == 0 {
			return res
		}
	}
	// A dripping peer's first chunk can be a byte or two — too short to
	// tell a sliced "2" from real garbage. Keep reading within the window
	// only while the evidence is that thin; decisive openings (any known
	// protocol, or enough bytes to call garbage honestly) return at once.
	for n < maxBytes && indecisive(buf[:n]) {
		conn.SetReadDeadline(time.Now().Add(wait))
		m, err := conn.Read(buf[n:])
		n += m
		if m == 0 || err != nil {
			break
		}
	}
	res.Banner = string(buf[:n])
	res.Protocol = fingerprint.SniffProtocol(buf[:n])
	return res
}

// indecisive reports that the bytes so far are both unrecognized and too few
// to rule a protocol out — the only case worth waiting for more.
func indecisive(b []byte) bool {
	return len(b) < 8 && fingerprint.SniffProtocol(b) == fingerprint.ProtoGarbage
}

// isTimeout reports whether a read error is a deadline expiry rather than a
// closed connection.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// Stage fans identification over a stream of discovered endpoints, the
// pipeline segment between discovery and enumeration.
type Stage struct {
	// Cfg parameterizes each identification. Its Dialer is ignored; each
	// worker gets its own source-bound dialer.
	Cfg Config
	// Network is the simulated Internet.
	Network *simnet.Network
	// SourceBase is the first identification source address; worker i
	// binds SourceBase+i.
	SourceBase simnet.IP
	// Workers is the concurrency; 0 means 32.
	Workers int
	// Metrics overrides Cfg's when non-nil.
	Metrics *obs.Registry
}

// stageMetrics resolves the stage's instruments once.
type stageMetrics struct {
	dials     *obs.Counter
	passed    *obs.Counter
	shed      *obs.Counter
	triggered *obs.Counter
	errors    *obs.Counter
	latency   *obs.Histogram
}

func newStageMetrics(reg *obs.Registry) stageMetrics {
	return stageMetrics{
		dials:     reg.Counter("identify.dials"),
		passed:    reg.Counter("identify.passed"),
		shed:      reg.Counter("identify.shed"),
		triggered: reg.Counter("identify.triggered"),
		errors:    reg.Counter("identify.errors"),
		latency:   reg.Histogram("identify.latency", obs.DefaultLatencyBuckets...),
	}
}

// Run identifies every endpoint from in, forwarding FTP endpoints to ftp
// (in identification-completion order) and everything else to shed. It
// closes ftp and shed when done — the enumerator fleet downstream sees a
// normal intake close, and the drain knows the shed stream is complete.
// Cancellation stops it at once: an identification the cancellation cut
// is neither forwarded nor shed, and counts in no identify.* counter, so
// passed + shed == dials holds on a cut run too.
func (s *Stage) Run(ctx context.Context, in <-chan simnet.IP, ftp chan<- simnet.IP, shed chan<- Result) {
	defer close(ftp)
	defer close(shed)
	workers := s.Workers
	if workers <= 0 {
		workers = 32
	}
	reg := s.Metrics
	if reg == nil {
		reg = s.Cfg.Metrics
	}
	m := newStageMetrics(reg)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(src simnet.IP) {
			defer wg.Done()
			cfg := s.Cfg
			cfg.Dialer = simnet.Dialer{Net: s.Network, Src: src}
			for {
				select {
				case <-ctx.Done():
					return
				case ip, ok := <-in:
					if !ok {
						return
					}
					start := time.Now()
					res := Identify(ctx, cfg, ip.String())
					if ctx.Err() != nil {
						return
					}
					m.latency.Since(start)
					m.dials.Inc()
					if res.Triggered {
						m.triggered.Inc()
					}
					if res.Err != nil {
						m.errors.Inc()
					}
					if res.Protocol == fingerprint.ProtoFTP {
						m.passed.Inc()
						select {
						case ftp <- ip:
						case <-ctx.Done():
							return
						}
						continue
					}
					m.shed.Inc()
					select {
					case shed <- res:
					case <-ctx.Done():
						return
					}
				}
			}
		}(simnet.IP(uint64(s.SourceBase) + uint64(i)))
	}
	wg.Wait()
}
