package simnet

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoHost is a test HostProvider serving an echo service on one port.
type echoHost struct {
	ip   IP
	port uint16
}

func (e *echoHost) Lookup(ip IP) Host {
	if ip != e.ip {
		return nil
	}
	return e
}

func (e *echoHost) Listening(port uint16) bool { return port == e.port }

func (e *echoHost) Handler(port uint16) Handler {
	if port != e.port {
		return nil
	}
	return HandlerFunc(func(_ *Network, conn net.Conn) {
		defer conn.Close()
		io.Copy(conn, conn)
	})
}

func TestDialProviderHost(t *testing.T) {
	host := &echoHost{ip: MustParseIP("5.6.7.8"), port: 21}
	nw := NewNetwork(host)
	conn, err := nw.DialFrom(MustParseIP("1.1.1.1"), host.ip, 21)
	if err != nil {
		t.Fatalf("DialFrom: %v", err)
	}
	defer conn.Close()
	msg := []byte("hello simnet\r\n")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q, want %q", got, msg)
	}
}

func TestDialRefused(t *testing.T) {
	nw := NewNetwork(nil)
	if _, err := nw.DialFrom(1, 2, 21); !ErrRefused(err) {
		t.Fatalf("want refused, got %v", err)
	}
	host := &echoHost{ip: 100, port: 21}
	nw.SetProvider(host)
	if _, err := nw.DialFrom(1, 100, 22); !ErrRefused(err) {
		t.Fatalf("wrong port: want refused, got %v", err)
	}
	if _, err := nw.DialFrom(1, 101, 21); !ErrRefused(err) {
		t.Fatalf("wrong ip: want refused, got %v", err)
	}
}

func TestExplicitListener(t *testing.T) {
	nw := NewNetwork(nil)
	ip := MustParseIP("9.9.9.9")
	l, err := nw.Listen(ip, 2100)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		conn.Write([]byte("hi"))
		conn.Close()
	}()
	conn, err := nw.DialFrom(MustParseIP("1.2.3.4"), ip, 2100)
	if err != nil {
		t.Fatalf("DialFrom: %v", err)
	}
	buf, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(buf) != "hi" {
		t.Errorf("got %q", buf)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := nw.DialFrom(MustParseIP("1.2.3.4"), ip, 2100); !ErrRefused(err) {
		t.Fatalf("after close: want refused, got %v", err)
	}
}

func TestListenEphemeralPort(t *testing.T) {
	nw := NewNetwork(nil)
	ip := MustParseIP("9.9.9.9")
	l1, err := nw.Listen(ip, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	l2, err := nw.Listen(ip, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	a1 := l1.Addr().(Addr)
	a2 := l2.Addr().(Addr)
	if a1.Port == 0 || a2.Port == 0 || a1.Port == a2.Port {
		t.Errorf("ephemeral ports: %d, %d", a1.Port, a2.Port)
	}
}

func TestListenConflict(t *testing.T) {
	nw := NewNetwork(nil)
	ip := MustParseIP("9.9.9.9")
	l, err := nw.Listen(ip, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := nw.Listen(ip, 21); err == nil {
		t.Fatal("duplicate Listen succeeded")
	}
}

func TestProbe(t *testing.T) {
	host := &echoHost{ip: 500, port: 21}
	nw := NewNetwork(host)
	if !nw.Probe(500, 21, 0) {
		t.Error("Probe open port = false")
	}
	if nw.Probe(500, 80, 0) {
		t.Error("Probe closed port = true")
	}
	if nw.Probe(501, 21, 0) {
		t.Error("Probe absent host = true")
	}
	if got := nw.Stats.Probes.Load(); got != 3 {
		t.Errorf("probe count = %d", got)
	}
	if got := nw.Stats.ProbesOpen.Load(); got != 1 {
		t.Errorf("open count = %d", got)
	}
}

func TestProbeLossDeterministic(t *testing.T) {
	host := &echoHost{ip: 500, port: 21}
	nw := NewNetwork(host)
	nw.LossRate = 0.5
	nw.LossSeed = 42
	// Same (ip,port,attempt) must give the same outcome every time.
	first := nw.Probe(500, 21, 0)
	for i := 0; i < 10; i++ {
		if nw.Probe(500, 21, 0) != first {
			t.Fatal("loss not deterministic")
		}
	}
	// With 50% loss, across many attempts some succeed and some drop.
	drops, oks := 0, 0
	for attempt := 0; attempt < 200; attempt++ {
		if nw.Probe(500, 21, attempt) {
			oks++
		} else {
			drops++
		}
	}
	if drops == 0 || oks == 0 {
		t.Errorf("loss rate 0.5: drops=%d oks=%d", drops, oks)
	}
}

// stripeScanner answers probes from a fixed rule, like worldgen's truth:
// every third address listens on port 21.
type stripeScanner struct{}

func (stripeScanner) Lookup(IP) Host { return nil }

func (stripeScanner) PortOpen(ip IP, port uint16) bool { return port == 21 && ip%3 == 0 }

// TestProbeRetriesMatchesProbeLoop holds ProbeRetries to the per-attempt
// loop it replaces: for every loss seed, loss rate, retry count and address
// — scanner-answered, absent, and explicit listeners — the answer and the
// simnet.probes / simnet.probes_open deltas are the loop's.
func TestProbeRetriesMatchesProbeLoop(t *testing.T) {
	loop := func(nw *Network, ip IP, port uint16, retries int) bool {
		open := false
		for attempt := 0; !open && attempt <= retries; attempt++ {
			open = nw.Probe(ip, port, attempt)
		}
		return open
	}
	listenIP := MustParseIP("10.0.0.1") // ip%3 != 0: only the listeners answer
	type target struct {
		ip   IP
		port uint16
	}
	targets := []target{{listenIP, 21}, {listenIP, 2121}, {listenIP, 80}}
	for i := uint64(0); i < 600; i++ {
		ip := IP(i * 2654435761 % (1 << 32))
		targets = append(targets, target{ip, 21}, target{ip + 1, 21}, target{ip, 80})
	}
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15} {
		for _, rate := range []float64{0, 0.02, 0.5, 1} {
			for retries := 0; retries <= 3; retries++ {
				old, cur := NewNetwork(stripeScanner{}), NewNetwork(stripeScanner{})
				for _, nw := range []*Network{old, cur} {
					nw.LossSeed, nw.LossRate = seed, rate
					for _, port := range []uint16{21, 2121} {
						l, err := nw.Listen(listenIP, port)
						if err != nil {
							t.Fatal(err)
						}
						defer l.Close()
					}
				}
				for _, tg := range targets {
					p0, o0 := old.Stats.Probes.Load(), old.Stats.ProbesOpen.Load()
					q0, r0 := cur.Stats.Probes.Load(), cur.Stats.ProbesOpen.Load()
					want := loop(old, tg.ip, tg.port, retries)
					got := cur.ProbeRetries(tg.ip, tg.port, retries)
					dp, do := old.Stats.Probes.Load()-p0, old.Stats.ProbesOpen.Load()-o0
					dq, dr := cur.Stats.Probes.Load()-q0, cur.Stats.ProbesOpen.Load()-r0
					if got != want || dq != dp || dr != do {
						t.Fatalf("seed %#x rate %v retries %d %s:%d: ProbeRetries = %v (probes +%d, open +%d), loop = %v (probes +%d, open +%d)",
							seed, rate, retries, tg.ip, tg.port, got, dq, dr, want, dp, do)
					}
				}
			}
		}
	}
}

func TestProbeRetriesNegativeIsOneAttempt(t *testing.T) {
	nw := NewNetwork(stripeScanner{})
	if !nw.ProbeRetries(3, 21, -1) || nw.ProbeRetries(4, 21, -5) {
		t.Fatal("negative retries changed the answer")
	}
	if got := nw.Stats.Probes.Load(); got != 2 {
		t.Fatalf("probes = %d, want 2", got)
	}
}

func TestLatencyApplied(t *testing.T) {
	host := &echoHost{ip: 500, port: 21}
	nw := NewNetwork(host)
	nw.Latency = func(src, dst IP) time.Duration { return 30 * time.Millisecond }
	start := time.Now()
	conn, err := nw.DialFrom(1, 500, 21)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("latency not applied: dial took %v", elapsed)
	}
}

func TestDialerInterface(t *testing.T) {
	host := &echoHost{ip: MustParseIP("5.5.5.5"), port: 21}
	nw := NewNetwork(host)
	d := Dialer{Net: nw, Src: MustParseIP("1.1.1.1")}
	conn, err := d.Dial("tcp", "5.5.5.5:21")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn.Close()
	if _, err := d.Dial("udp", "5.5.5.5:21"); err == nil {
		t.Error("udp Dial succeeded, want error")
	}
	if _, err := d.Dial("tcp", "not-an-addr"); err == nil {
		t.Error("bad addr Dial succeeded, want error")
	}
}

func TestConnDeadlines(t *testing.T) {
	a, b := NewConnPair(Addr{IP: 1, Port: 1000}, Addr{IP: 2, Port: 21})
	defer a.Close()
	defer b.Close()

	a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := a.Read(buf)
	var nerr net.Error
	if err == nil {
		t.Fatal("read succeeded, want timeout")
	}
	if ok := asNetError(err, &nerr); !ok || !nerr.Timeout() {
		t.Fatalf("want net.Error timeout, got %v", err)
	}

	// Clearing the deadline allows subsequent reads.
	a.SetReadDeadline(time.Time{})
	go b.Write([]byte("x"))
	if _, err := a.Read(buf); err != nil {
		t.Fatalf("read after deadline clear: %v", err)
	}
}

func asNetError(err error, target *net.Error) bool {
	ne, ok := err.(net.Error)
	if ok {
		*target = ne
	}
	return ok
}

func TestConnCloseSemantics(t *testing.T) {
	a, b := NewConnPair(Addr{IP: 1, Port: 1}, Addr{IP: 2, Port: 2})
	a.Write([]byte("tail"))
	a.Close()
	// Peer drains buffered data, then sees EOF.
	buf, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("ReadAll after close: %v", err)
	}
	if string(buf) != "tail" {
		t.Errorf("drained %q", buf)
	}
	// Writes to a closed peer fail.
	if _, err := b.Write([]byte("x")); err == nil {
		t.Error("write to closed peer succeeded")
	}
	// Double close is safe.
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestConnLargeTransfer(t *testing.T) {
	a, b := NewConnPair(Addr{IP: 1, Port: 1}, Addr{IP: 2, Port: 2})
	defer b.Close()
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64*1024) // 1 MiB > buffer
	go func() {
		a.Write(payload)
		a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("large transfer corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestConnAddrs(t *testing.T) {
	la := Addr{IP: MustParseIP("1.2.3.4"), Port: 40000}
	ra := Addr{IP: MustParseIP("5.6.7.8"), Port: 21}
	a, b := NewConnPair(la, ra)
	defer a.Close()
	defer b.Close()
	if a.LocalAddr().String() != "1.2.3.4:40000" || a.RemoteAddr().String() != "5.6.7.8:21" {
		t.Errorf("client addrs: %v / %v", a.LocalAddr(), a.RemoteAddr())
	}
	if b.LocalAddr().String() != "5.6.7.8:21" || b.RemoteAddr().String() != "1.2.3.4:40000" {
		t.Errorf("server addrs: %v / %v", b.LocalAddr(), b.RemoteAddr())
	}
}

// panicHost is a provider whose handler always panics.
type panicHost struct{ ip IP }

func (p *panicHost) Lookup(ip IP) Host {
	if ip != p.ip {
		return nil
	}
	return p
}
func (p *panicHost) Listening(port uint16) bool { return port == 21 }
func (p *panicHost) Handler(uint16) Handler {
	return HandlerFunc(func(_ *Network, _ net.Conn) { panic("simulated host crash") })
}

// TestHandlerPanicIsolated: a crashing host resets its connection instead of
// taking down the process.
func TestHandlerPanicIsolated(t *testing.T) {
	nw := NewNetwork(&panicHost{ip: 700})
	conn, err := nw.DialFrom(1, 700, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	// serveIsolated counts the panic before it closes the connection, so
	// the EOF this read sees is the event that orders the count.
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("read from crashed host: %v, want EOF", err)
	}
	if nw.Stats.HandlerPanics.Load() != 1 {
		t.Errorf("panics recorded = %d", nw.Stats.HandlerPanics.Load())
	}
}

// TestNetworkConcurrencyChaos hammers the probe fast path, full dials, and
// listener churn from many goroutines at once. Run under -race (the tier-1
// Makefile does) it proves the atomic-snapshot listener table and the
// lock-free probe path are actually safe, not just fast.
func TestNetworkConcurrencyChaos(t *testing.T) {
	provider := NewStaticProvider()
	const hostCount = 8
	for i := 0; i < hostCount; i++ {
		provider.Add(IP(100+i), 21, HandlerFunc(func(_ *Network, conn net.Conn) {
			defer conn.Close()
			io.Copy(conn, conn)
		}))
	}
	nw := NewNetwork(provider)
	nw.LossRate = 0.1
	nw.LossSeed = 7

	var wg sync.WaitGroup

	// Probers sweep open and closed addresses and ports.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				nw.Probe(IP(90+(i+g)%20), uint16(21+i%3), i)
			}
		}(g)
	}

	// Dialers build full connections and exchange a payload.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				conn, err := nw.DialFrom(IP(5000+g), IP(100+i%hostCount), 21)
				if err != nil {
					t.Errorf("DialFrom: %v", err)
					return
				}
				conn.Write([]byte("ping"))
				buf := make([]byte, 4)
				if _, err := io.ReadFull(conn, buf); err != nil {
					t.Errorf("ReadFull: %v", err)
				}
				conn.Close()
			}
		}(g)
	}

	// Listener churn: bind ephemeral listeners and close them while
	// probes and dials read the snapshot.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l, err := nw.Listen(IP(9000+g), 0)
				if err != nil {
					t.Errorf("Listen: %v", err)
					return
				}
				nw.Probe(IP(9000+g), l.Addr().(Addr).Port, 0)
				l.Close()
			}
		}(g)
	}

	// Provider swaps interleave with every read path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			nw.SetProvider(provider)
		}
	}()

	wg.Wait()
	if got := nw.Stats.Dials.Load(); got != 400 {
		t.Errorf("dials = %d, want 400", got)
	}
}

// TestProbeFastPathUsed: a provider implementing PortScanner answers probes
// through PortOpen, and the probe path never calls Lookup.
func TestProbeFastPathUsed(t *testing.T) {
	p := &countingScanner{open: 700}
	nw := NewNetwork(p)
	if !nw.Probe(700, 21, 0) {
		t.Error("probe of open host = false")
	}
	if nw.Probe(701, 21, 0) {
		t.Error("probe of absent host = true")
	}
	if p.portOpens == 0 {
		t.Error("PortOpen fast path not consulted")
	}
	if p.lookups != 0 {
		t.Errorf("Probe called Lookup %d times, want 0", p.lookups)
	}
	// A full dial still materializes through Lookup.
	if _, err := nw.DialFrom(1, 700, 21); err != nil {
		t.Fatalf("DialFrom: %v", err)
	}
	if p.lookups != 1 {
		t.Errorf("DialFrom lookups = %d, want 1", p.lookups)
	}
}

// countingScanner is a HostProvider+PortScanner counting which path ran.
type countingScanner struct {
	open      IP
	lookups   int
	portOpens int
}

func (c *countingScanner) PortOpen(ip IP, port uint16) bool {
	c.portOpens++
	return ip == c.open && port == 21
}

func (c *countingScanner) Lookup(ip IP) Host {
	c.lookups++
	if ip != c.open {
		return nil
	}
	return &echoHost{ip: c.open, port: 21}
}

func TestDroppedUsesFullSeed(t *testing.T) {
	// Two seeds differing only in the high 32 bits must produce different
	// loss patterns (the seed's upper half used to be ignored).
	a := NewNetwork(nil)
	a.LossRate = 0.5
	a.LossSeed = 1
	b := NewNetwork(nil)
	b.LossRate = 0.5
	b.LossSeed = 1 | (1 << 40)
	same := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		if a.dropped(IP(i), 21, 0) == b.dropped(IP(i), 21, 0) {
			same++
		}
	}
	if same == trials {
		t.Error("high seed bits do not affect loss decisions")
	}
}

func TestConcurrentDials(t *testing.T) {
	host := &echoHost{ip: 500, port: 21}
	nw := NewNetwork(host)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(src IP) {
			defer wg.Done()
			conn, err := nw.DialFrom(src, 500, 21)
			if err != nil {
				t.Errorf("DialFrom: %v", err)
				return
			}
			defer conn.Close()
			conn.Write([]byte("ping"))
			buf := make([]byte, 4)
			if _, err := io.ReadFull(conn, buf); err != nil {
				t.Errorf("ReadFull: %v", err)
			}
		}(IP(1000 + i))
	}
	wg.Wait()
	if got := nw.Stats.Dials.Load(); got != 50 {
		t.Errorf("dials = %d, want 50", got)
	}
}
