package enumerator

import (
	"context"
	"sync"
	"time"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// Fleet runs enumerations concurrently over a stream of discovered hosts —
// the paper spreads load "across a large number of widely dispersed hosts";
// here the dispersal is worker goroutines with distinct source addresses.
type Fleet struct {
	// Cfg is the per-host enumeration configuration. Its Dialer is
	// ignored; each worker gets its own source-bound dialer.
	Cfg Config
	// Network is the simulated Internet.
	Network *simnet.Network
	// SourceBase is the first scanner source address; worker i binds
	// SourceBase+i.
	SourceBase simnet.IP
	// Workers is the concurrency; 0 means 32.
	Workers int
	// Metrics, when non-nil, registers fleet-level throughput metrics
	// (enum.hosts, enum.inflight, enum.host_seconds) and passes the
	// registry down to each enumeration for per-command latencies.
	Metrics *obs.Registry
}

// deliverGrace bounds how long a worker waits to hand over a finished
// record after cancellation before giving up on the consumer.
const deliverGrace = 5 * time.Second

// Run enumerates every IP from in, sending records to out in completion
// order. It closes out when done.
//
// Cancellation is graceful with respect to finished work: a record whose
// enumeration completed is still delivered after ctx is cancelled — losing
// it would turn a deadline expiry into data loss. Consumers must therefore
// keep draining out until it closes (the census drain does); a consumer
// that stops reading entirely only delays shutdown by a bounded grace
// period per in-flight worker.
func (f *Fleet) Run(ctx context.Context, in <-chan simnet.IP, out chan<- *dataset.HostRecord) {
	defer close(out)
	workers := f.Workers
	if workers <= 0 {
		workers = 32
	}
	hosts := f.Metrics.Counter("enum.hosts")
	inflight := f.Metrics.Gauge("enum.inflight")
	hostDur := f.Metrics.Histogram("enum.host_seconds", obs.WideBuckets...)
	conns := &sync.Pool{New: func() any { return newHostConn() }}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(src simnet.IP) {
			defer wg.Done()
			cfg := f.Cfg
			cfg.Dialer = simnet.Dialer{Net: f.Network, Src: src}
			cfg.Metrics = f.Metrics
			for {
				select {
				case <-ctx.Done():
					return
				case ip, ok := <-in:
					if !ok {
						return
					}
					inflight.Inc()
					start := time.Now()
					rec := enumerate(ctx, cfg, ip.String(), conns)
					hostDur.Since(start)
					inflight.Dec()
					hosts.Inc()
					select {
					case out <- rec:
					case <-ctx.Done():
						// The work is done; give the consumer a
						// bounded window to take the record before
						// dropping it.
						t := time.NewTimer(deliverGrace)
						select {
						case out <- rec:
							t.Stop()
						case <-t.C:
						}
						return
					}
				}
			}
		}(simnet.IP(uint64(f.SourceBase) + uint64(i)))
	}
	wg.Wait()
}

// SimCollector is the third-party endpoint used by the PORT-validation
// probe: a listener on the simulated network recording which server
// addresses connected to it.
type SimCollector struct {
	listener *simnet.Listener
	addr     ftp.HostPort

	mu   sync.Mutex
	cond *sync.Cond
	seen map[string]bool
	done bool
}

// NewSimCollector binds a collector at ip:port on the network and starts
// accepting.
func NewSimCollector(nw *simnet.Network, ip simnet.IP, port uint16) (*SimCollector, error) {
	l, err := nw.Listen(ip, port)
	if err != nil {
		return nil, err
	}
	bound := l.Addr().(simnet.Addr)
	c := &SimCollector{
		listener: l,
		addr:     ftp.HostPort{IP: ip.Octets(), Port: bound.Port},
		seen:     make(map[string]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.acceptLoop()
	return c, nil
}

func (c *SimCollector) acceptLoop() {
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			c.mu.Lock()
			c.done = true
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		remote := conn.RemoteAddr().(simnet.Addr)
		c.mu.Lock()
		c.seen[remote.IP.String()] = true
		c.cond.Broadcast()
		c.mu.Unlock()
		// Drain politely then drop: the bounced payload is irrelevant,
		// only the connection's existence matters.
		go func() {
			buf := make([]byte, 4096)
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			for {
				if _, err := conn.Read(buf); err != nil {
					break
				}
			}
			conn.Close()
		}()
	}
}

// Addr implements Collector.
func (c *SimCollector) Addr() ftp.HostPort { return c.addr }

// Saw implements Collector: it waits up to the window for serverIP to
// connect.
func (c *SimCollector) Saw(serverIP string, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	timer := time.AfterFunc(wait, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.seen[serverIP] {
			return true
		}
		if c.done || !time.Now().Before(deadline) {
			return false
		}
		c.cond.Wait()
	}
}

// Close stops the collector.
func (c *SimCollector) Close() error { return c.listener.Close() }
