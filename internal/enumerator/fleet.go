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
// here the dispersal is Workers source addresses, each lent to one host at a
// time.
type Fleet struct {
	// Cfg is the per-host enumeration configuration. Its Dialer is
	// ignored; each host dials from the source address of its slot.
	Cfg Config
	// Network is the simulated Internet.
	Network *simnet.Network
	// SourceBase is the first scanner source address; slot i binds
	// SourceBase+i.
	SourceBase simnet.IP
	// Workers bounds the concurrent enumeration connections; 0 means 32.
	// A host holds one of Workers source-address slots while it has a
	// connection open; waiting out a connect-phase retry backoff it holds
	// none.
	Workers int
	// Metrics, when non-nil, registers fleet-level throughput metrics
	// (enum.hosts, enum.inflight, enum.backoff, enum.host_seconds) and
	// passes the registry down to each enumeration for per-command
	// latencies. enum.inflight counts admitted hosts, parked ones
	// included; enum.backoff counts the parked ones, which hold no slot.
	Metrics *obs.Registry
}

// lender is what a Fleet lends its hosts: the free source-address slots,
// and the control-channel wrappers and data buffers that go with an open
// connection.
type lender struct {
	slots  chan simnet.IP
	conns  sync.Pool
	nw     *simnet.Network
	parked *obs.Gauge
}

// slot is one host's claim on a lender's source address.
type slot struct {
	*lender
	src simnet.IP
}

func (s *slot) dialer() simnet.Dialer { return simnet.Dialer{Net: s.nw, Src: s.src} }

// park waits d, or until ctx ends, holding no source address, then takes
// whichever slot is free first. It reports whether d passed first.
func (s *slot) park(ctx context.Context, d time.Duration) bool {
	s.parked.Inc()
	s.slots <- s.src
	ok := sleep(ctx, d)
	s.src = <-s.slots
	s.parked.Dec()
	return ok
}

// Run enumerates every IP from in, sending records to out in completion
// order. It closes out when done. A host is admitted from in only when a
// slot is free, and keeps its slot until its record is delivered, except
// while it waits out a connect-phase backoff (see Workers). Parked hosts are
// bounded by the admission rate times the backoff, not by Workers.
//
// Cancellation stops the fleet at once: no host is admitted after it, and
// an admitted host is cut where it stands and yields no record (see
// Enumerate). A finished record is sent unless ctx ends first, so Run
// returns promptly even when the consumer has stopped reading. A caller
// that must account for every host therefore treats the hosts it handed
// in without getting a record back as still to do; the census keeps them
// pending in its checkpoint.
func (f *Fleet) Run(ctx context.Context, in <-chan simnet.IP, out chan<- *dataset.HostRecord) {
	defer close(out)
	workers := f.Workers
	if workers <= 0 {
		workers = 32
	}
	hosts := f.Metrics.Counter("enum.hosts")
	inflight := f.Metrics.Gauge("enum.inflight")
	hostDur := f.Metrics.Histogram("enum.host_seconds", obs.WideBuckets...)
	l := &lender{
		slots:  make(chan simnet.IP, workers),
		conns:  sync.Pool{New: func() any { return newHostConn() }},
		nw:     f.Network,
		parked: f.Metrics.Gauge("enum.backoff"),
	}
	for i := 0; i < workers; i++ {
		l.slots <- simnet.IP(uint64(f.SourceBase) + uint64(i))
	}
	cfg := f.Cfg
	cfg.Metrics = f.Metrics

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		var ip simnet.IP
		select {
		case <-ctx.Done():
			return
		case next, ok := <-in:
			if !ok {
				return
			}
			ip = next
		}
		sl := &slot{lender: l}
		select {
		case <-ctx.Done():
			return
		case sl.src = <-l.slots:
		}
		inflight.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			rec := enumerate(ctx, cfg, ip.String(), sl)
			inflight.Dec()
			if rec != nil {
				hostDur.Since(start)
				select {
				case out <- rec:
					hosts.Inc()
				case <-ctx.Done():
				}
			}
			// The slot goes back only once the record is taken, so a
			// slow consumer holds admission back.
			l.slots <- sl.src
		}()
	}
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

// Saw implements Collector: it waits up to the window, or until ctx ends,
// for serverIP to connect.
func (c *SimCollector) Saw(ctx context.Context, serverIP string, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	wake := func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	timer := time.AfterFunc(wait, wake)
	defer timer.Stop()
	defer context.AfterFunc(ctx, wake)()

	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.seen[serverIP] {
			return true
		}
		if c.done || ctx.Err() != nil || !time.Now().Before(deadline) {
			return false
		}
		c.cond.Wait()
	}
}

// Close stops the collector.
func (c *SimCollector) Close() error { return c.listener.Close() }
