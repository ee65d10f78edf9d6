package simnet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// faultPair builds a connected pair with prof applied to the client end.
func faultPair(prof FaultProfile) (client net.Conn, server *Conn) {
	c, s := NewConnPair(Addr{IP: 1, Port: 40000}, Addr{IP: 2, Port: 21})
	return wrapFault(c, &prof), s
}

func TestFaultSlowDripChunksReads(t *testing.T) {
	client, server := faultPair(FaultProfile{DripBytes: 4, DripDelay: 2 * time.Millisecond})
	defer client.Close()
	go server.Write(make([]byte, 64))

	buf := make([]byte, 64)
	start := time.Now()
	total := 0
	for total < 64 {
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if n > 4 {
			t.Fatalf("drip delivered %d bytes, cap 4", n)
		}
		total += n
	}
	if elapsed := time.Since(start); elapsed < 16*2*time.Millisecond {
		t.Errorf("64 bytes at 4B/2ms took %v; drip not applied", elapsed)
	}
}

func TestFaultMidSessionReset(t *testing.T) {
	client, server := faultPair(FaultProfile{ResetAfterBytes: 10})
	defer client.Close()
	go server.Write(make([]byte, 100))

	buf := make([]byte, 100)
	total := 0
	for {
		n, err := client.Read(buf)
		total += n
		if err != nil {
			if !ErrReset(err) {
				t.Fatalf("want reset error, got %v", err)
			}
			break
		}
		if total > 10 {
			t.Fatalf("read %d bytes past the reset threshold", total)
		}
	}
	if total != 10 {
		t.Errorf("delivered %d bytes before reset, want exactly 10", total)
	}
	// The underlying connection is gone: writes fail.
	if _, err := client.Write([]byte("x")); err == nil {
		t.Error("write succeeded after reset")
	}
}

func TestFaultPrematureEOF(t *testing.T) {
	client, server := faultPair(FaultProfile{CloseAfterBytes: 5})
	defer client.Close()
	go server.Write(make([]byte, 50))

	body, err := io.ReadAll(client)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(body) != 5 {
		t.Errorf("got %d bytes, want 5 then clean EOF", len(body))
	}
}

func TestFaultStallHonorsReadDeadline(t *testing.T) {
	client, server := faultPair(FaultProfile{StallAfterBytes: 8})
	defer client.Close()
	go server.Write(make([]byte, 64))

	buf := make([]byte, 64)
	total := 0
	client.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	start := time.Now()
	for {
		n, err := client.Read(buf)
		total += n
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("stall ended with %v, want timeout", err)
			}
			break
		}
	}
	if total != 8 {
		t.Errorf("delivered %d bytes before stall, want 8", total)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("stall resolved in %v, want ≈100ms deadline expiry", elapsed)
	}
}

func TestFaultReadAfterCloseFails(t *testing.T) {
	client, _ := faultPair(FaultProfile{DripBytes: 4})
	client.Close()
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded on closed faulted conn")
	}
}

func TestFaultStalledReadReturnsOnClose(t *testing.T) {
	client, server := faultPair(FaultProfile{StallAfterBytes: 1})
	go server.Write([]byte("ab"))

	buf := make([]byte, 2)
	if n, err := client.Read(buf); err != nil || n != 1 {
		t.Fatalf("pre-stall read: n=%d err=%v", n, err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Read(buf)
		done <- err
	}()
	// The assertion holds in either order — a read that starts after
	// Close fails too — so the sleep only makes it likely that Close lands
	// on a read parked in the stall. Nothing observable marks "parked",
	// so there is no event to wait on instead.
	time.Sleep(20 * time.Millisecond)
	client.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("stalled read returned nil after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled read did not unblock on close")
	}
}

// staticFaults injects one profile for every connection to a given port.
type staticFaults struct {
	port uint16
	prof FaultProfile
}

func (f staticFaults) FaultFor(_, _ IP, port uint16) *FaultProfile {
	if port != f.port {
		return nil
	}
	p := f.prof
	return &p
}

func TestNetworkInjectsFaults(t *testing.T) {
	provider := NewStaticProvider()
	srv := MustParseIP("9.9.9.9")
	provider.Add(srv, 21, HandlerFunc(func(_ *Network, conn net.Conn) {
		conn.Write(make([]byte, 100))
		conn.Close()
	}))
	nw := NewNetwork(provider)
	nw.Faults = staticFaults{port: 21, prof: FaultProfile{ResetAfterBytes: 16}}

	conn, err := nw.DialFrom(MustParseIP("1.2.3.4"), srv, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, err := io.ReadAll(conn)
	if err == nil || !ErrReset(err) {
		t.Fatalf("faulted dial read %d bytes, err=%v; want reset", len(body), err)
	}
	if got := nw.Stats.FaultedDials.Load(); got != 1 {
		t.Errorf("FaultedDials = %d, want 1", got)
	}
}

func TestNetworkConnectLatencyFault(t *testing.T) {
	provider := NewStaticProvider()
	srv := MustParseIP("9.9.9.10")
	provider.Add(srv, 21, HandlerFunc(func(_ *Network, conn net.Conn) {
		conn.Write([]byte("hello"))
		conn.Close()
	}))
	nw := NewNetwork(provider)
	nw.Faults = staticFaults{port: 21, prof: FaultProfile{ConnectLatency: 50 * time.Millisecond}}

	start := time.Now()
	conn, err := nw.DialFrom(MustParseIP("1.2.3.4"), srv, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("dial took %v, want ≥50ms connect latency", elapsed)
	}
	// Latency-only profiles need no wrapper; the conn must read cleanly.
	if body, err := io.ReadAll(conn); err != nil || string(body) != "hello" {
		t.Errorf("read after latency: %q, %v", body, err)
	}
}
