package simnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ftpcloud/internal/obs"
)

// Handler serves one accepted connection on a provider-backed host.
// Implementations receive the network so they can originate connections of
// their own (FTP active mode dials the client back; PORT bouncing dials
// third parties).
type Handler interface {
	ServeConn(nw *Network, conn net.Conn)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(nw *Network, conn net.Conn)

// ServeConn implements Handler.
func (f HandlerFunc) ServeConn(nw *Network, conn net.Conn) { f(nw, conn) }

// Host describes a provider-backed host's listening surface.
type Host interface {
	// Listening reports whether the TCP port accepts connections.
	Listening(port uint16) bool
	// Handler returns the connection handler for an open port, or nil.
	Handler(port uint16) Handler
}

// HostProvider materializes hosts on demand. Lookup must be safe for
// concurrent use; it is only consulted when a full connection is built
// (DialFrom), so it may do real work — allocate a filesystem, start a
// server. Returning nil means no host answers at that address.
type HostProvider interface {
	Lookup(ip IP) Host
}

// PortScanner is the probe fast path: providers that can answer "would
// dst:port accept a connection?" from ground truth — without materializing
// the host — implement it alongside HostProvider. Probe consults PortOpen
// instead of Lookup, so a scan over billions of closed addresses never
// builds a host. PortOpen must be safe for concurrent use, must not block,
// and must agree with what Lookup would report.
type PortScanner interface {
	PortOpen(ip IP, port uint16) bool
}

// Stats counts network-level activity; useful in benches and ablations.
// The fields are obs counters so the same numbers double as registry-backed
// metrics: a network built with NewNetwork gets standalone counters, and
// BindMetrics rebinds them into a Registry under simnet.* names.
type Stats struct {
	Probes      *obs.Counter // SYN-probe fast-path checks
	ProbesOpen  *obs.Counter // probes that found an open port
	Dials       *obs.Counter // full connections established
	DialsFailed *obs.Counter
	Accepts     *obs.Counter // connections delivered to explicit listeners
	// HandlerPanics counts provider handlers that crashed; their
	// connections are reset rather than propagating the panic.
	HandlerPanics *obs.Counter
	// FaultedDials counts connections that received a fault profile.
	FaultedDials *obs.Counter
}

// newStats binds the counter set; a nil registry yields standalone counters.
func newStats(reg *obs.Registry) Stats {
	return Stats{
		Probes:        reg.Counter("simnet.probes"),
		ProbesOpen:    reg.Counter("simnet.probes_open"),
		Dials:         reg.Counter("simnet.dials"),
		DialsFailed:   reg.Counter("simnet.dials_failed"),
		Accepts:       reg.Counter("simnet.accepts"),
		HandlerPanics: reg.Counter("simnet.handler_panics"),
		FaultedDials:  reg.Counter("simnet.faulted_dials"),
	}
}

// providerBox pairs a provider with its pre-asserted fast-path interface so
// the per-probe path never repeats the type assertion.
type providerBox struct {
	host HostProvider
	scan PortScanner // nil when host does not implement PortScanner
}

// Network is the simulated Internet: a provider for the ambient host
// population plus explicitly registered listeners for measurement
// infrastructure (scan collectors, honeypots).
//
// The probe and dial paths are contention-free: they read atomic snapshots
// of the listener table and provider, never a lock. Mutations (Listen,
// Listener.Close, SetProvider) copy-on-write the snapshot under mu.
type Network struct {
	mu        sync.Mutex // serializes snapshot mutations only
	listeners atomic.Pointer[map[Addr]*Listener]
	provider  atomic.Pointer[providerBox]

	// Latency, when set, returns the connection-setup delay between two
	// addresses. Zero/nil means instantaneous setup.
	Latency func(src, dst IP) time.Duration
	// LossRate is the probability in [0,1) that a SYN probe is dropped;
	// drops are deterministic per (ip, port, attempt) so runs reproduce.
	LossRate float64
	// LossSeed derandomizes packet loss across worlds.
	LossSeed uint64
	// Faults, when set, assigns per-connection fault profiles (hostile
	// servers, lossy paths). Set before traffic flows, like Latency.
	Faults FaultInjector

	// ephemeral numbers the source ports of outbound connections from one
	// network-wide counter: no server reply spells one out. A port-0
	// listener takes its address's lowest free port instead (see Listen).
	ephemeral atomic.Uint32

	Stats Stats
}

// NewNetwork builds an empty network backed by an optional provider.
func NewNetwork(provider HostProvider) *Network {
	nw := &Network{Stats: newStats(nil)}
	empty := make(map[Addr]*Listener)
	nw.listeners.Store(&empty)
	nw.storeProvider(provider)
	return nw
}

// BindMetrics rebinds the network's counters into reg under simnet.* names.
// Like Latency and Faults, it must be set before traffic flows; counts
// accumulated on the previous counters are not carried over.
func (nw *Network) BindMetrics(reg *obs.Registry) {
	nw.Stats = newStats(reg)
}

// SetProvider replaces the ambient host provider.
func (nw *Network) SetProvider(p HostProvider) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.storeProvider(p)
}

func (nw *Network) storeProvider(p HostProvider) {
	box := &providerBox{host: p}
	box.scan, _ = p.(PortScanner)
	nw.provider.Store(box)
}

// errRefused mirrors ECONNREFUSED.
var errRefused = errors.New("simnet: connection refused")

// ErrRefused reports whether err represents a refused connection.
func ErrRefused(err error) bool { return errors.Is(err, errRefused) }

// Listener is an explicit listening socket, used by measurement
// infrastructure. It implements net.Listener.
type Listener struct {
	nw     *Network
	addr   Addr
	accept chan *Conn
	done   chan struct{}
	once   sync.Once
}

var _ net.Listener = (*Listener)(nil)

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		l.nw.Stats.Accepts.Add(1)
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unregisters the listener.
func (l *Listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		nw := l.nw
		nw.mu.Lock()
		next := make(map[Addr]*Listener, len(*nw.listeners.Load()))
		for a, lis := range *nw.listeners.Load() {
			if a != l.addr {
				next[a] = lis
			}
		}
		nw.listeners.Store(&next)
		nw.mu.Unlock()
	})
	return nil
}

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.addr }

// Listen binds an explicit listener. Port 0 picks the address's lowest
// free port in the ephemeral range. A server announces that port (an FTP
// PASV reply spells it out), so it must depend on the address's own
// listeners only, not on how connections elsewhere in the network were
// scheduled: a reply whose length varied with scheduling would move a
// byte-counted transport fault from one command to another.
func (nw *Network) Listen(ip IP, port uint16) (*Listener, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	cur := *nw.listeners.Load()
	if port == 0 {
		for port = ephemeralFirst; ; port++ {
			if _, taken := cur[Addr{IP: ip, Port: port}]; !taken {
				break
			}
			if port == ephemeralLast {
				return nil, fmt.Errorf("simnet: no free port on %s", ip)
			}
		}
	}
	addr := Addr{IP: ip, Port: port}
	if _, taken := cur[addr]; taken {
		return nil, fmt.Errorf("simnet: address %s already in use", addr)
	}
	l := &Listener{
		nw:     nw,
		addr:   addr,
		accept: make(chan *Conn, 16),
		done:   make(chan struct{}),
	}
	next := make(map[Addr]*Listener, len(cur)+1)
	for a, lis := range cur {
		next[a] = lis
	}
	next[addr] = l
	nw.listeners.Store(&next)
	return l, nil
}

// The ephemeral port range, Linux-style.
const (
	ephemeralFirst = 32768
	ephemeralLast  = 60999
)

// nextEphemeral assigns a source port from the ephemeral range for an
// outbound connection.
func (nw *Network) nextEphemeral() uint16 {
	return uint16(ephemeralFirst + nw.ephemeral.Add(1)%(ephemeralLast-ephemeralFirst+1))
}

// Probe is the SYN-scan fast path: it reports whether dst:port would accept
// a connection, without building one. Deterministic loss is applied so
// scanners observe realistic miss rates. The closed-port path performs no
// allocation and takes no lock.
func (nw *Network) Probe(dst IP, port uint16, attempt int) bool {
	nw.Stats.Probes.Add(1)
	if nw.LossRate > 0 && nw.dropped(dst, port, attempt) {
		return false
	}
	open := nw.portOpen(dst, port)
	if open {
		nw.Stats.ProbesOpen.Add(1)
	}
	return open
}

// ProbeRetries sends attempts 0..retries to dst:port and stops at the first
// one answered, as a loop over Probe would: the same answer and the same
// simnet.probes and simnet.probes_open counts. Only the loss draw depends on
// the attempt, so the port's truth is read once, and a closed port costs no
// loss draw at all. A negative retries sends one attempt.
func (nw *Network) ProbeRetries(dst IP, port uint16, retries int) bool {
	sent := uint64(max(retries, 0)) + 1
	if nw.portOpen(dst, port) {
		for attempt := uint64(0); attempt < sent; attempt++ {
			if nw.LossRate <= 0 || !nw.dropped(dst, port, int(attempt)) {
				nw.Stats.Probes.Add(attempt + 1)
				nw.Stats.ProbesOpen.Add(1)
				return true
			}
		}
	}
	nw.Stats.Probes.Add(sent)
	return false
}

// dropped decides deterministic probe loss with an inline splitmix64-style
// mix. The full 64-bit LossSeed and the disjoint (ip, port, attempt) bit
// fields all participate; attempts beyond 2^16 alias, far above any
// realistic retry count.
func (nw *Network) dropped(dst IP, port uint16, attempt int) bool {
	x := nw.LossSeed ^ (uint64(dst)<<32 | uint64(port)<<16 | uint64(uint16(attempt)))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x%1_000_000)/1_000_000 < nw.LossRate
}

func (nw *Network) portOpen(dst IP, port uint16) bool {
	if m := *nw.listeners.Load(); len(m) != 0 {
		if _, ok := m[Addr{IP: dst, Port: port}]; ok {
			return true
		}
	}
	box := nw.provider.Load()
	if box.scan != nil {
		return box.scan.PortOpen(dst, port)
	}
	if box.host == nil {
		return false
	}
	host := box.host.Lookup(dst)
	return host != nil && host.Listening(port)
}

// DialFrom establishes a connection from src to dst:port. The source port
// is chosen from the ephemeral range.
func (nw *Network) DialFrom(src IP, dst IP, port uint16) (net.Conn, error) {
	if nw.Latency != nil {
		if d := nw.Latency(src, dst); d > 0 {
			time.Sleep(d)
		}
	}
	var fault *FaultProfile
	if nw.Faults != nil {
		if fault = nw.Faults.FaultFor(src, dst, port); fault != nil {
			nw.Stats.FaultedDials.Add(1)
			if fault.ConnectLatency > 0 {
				time.Sleep(fault.ConnectLatency)
			}
			if !fault.active() {
				fault = nil
			}
		}
	}
	local := Addr{IP: src, Port: nw.nextEphemeral()}
	remote := Addr{IP: dst, Port: port}

	if l, explicit := (*nw.listeners.Load())[remote]; explicit {
		clientEnd, serverEnd := NewConnPair(local, remote)
		select {
		case l.accept <- serverEnd:
			nw.Stats.Dials.Add(1)
			return faulted(clientEnd, fault), nil
		case <-l.done:
			nw.Stats.DialsFailed.Add(1)
			return nil, errRefused
		}
	}

	if provider := nw.provider.Load().host; provider != nil {
		if host := provider.Lookup(dst); host != nil && host.Listening(port) {
			handler := host.Handler(port)
			if handler == nil {
				nw.Stats.DialsFailed.Add(1)
				return nil, errRefused
			}
			clientEnd, serverEnd := NewConnPair(local, remote)
			nw.Stats.Dials.Add(1)
			go serveIsolated(nw, handler, serverEnd)
			return faulted(clientEnd, fault), nil
		}
	}
	nw.Stats.DialsFailed.Add(1)
	return nil, errRefused
}

// faulted wraps the client end of a new connection when a profile applies.
func faulted(conn net.Conn, fault *FaultProfile) net.Conn {
	if fault == nil {
		return conn
	}
	return wrapFault(conn, fault)
}

// serveIsolated runs a host handler with panic isolation: one misbehaving
// simulated host must not bring down a million-address census. The panic is
// recorded and the connection reset, which is how a crashed real server
// looks from the wire.
func serveIsolated(nw *Network, handler Handler, conn *Conn) {
	defer func() {
		if r := recover(); r != nil {
			nw.Stats.HandlerPanics.Add(1)
			conn.Close()
		}
	}()
	handler.ServeConn(nw, conn)
}

// Dial parses an "ip:port" destination and connects from src.
func (nw *Network) Dial(src IP, dest string) (net.Conn, error) {
	addr, err := ParseAddr(dest)
	if err != nil {
		return nil, err
	}
	return nw.DialFrom(src, addr.IP, addr.Port)
}

// Dialer binds a source address, yielding the net.Dialer-shaped interface
// the enumerator consumes so it can also run over real TCP.
type Dialer struct {
	Net *Network
	Src IP
}

// Dial connects to "ip:port"; the network argument is accepted for
// signature compatibility and must be "tcp" or "sim-tcp".
func (d Dialer) Dial(network, address string) (net.Conn, error) {
	if network != "tcp" && network != "sim-tcp" {
		return nil, fmt.Errorf("simnet: unsupported network %q", network)
	}
	return d.Net.Dial(d.Src, address)
}
