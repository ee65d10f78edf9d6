package enumerator

import (
	"context"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
)

// slotWait bounds every wait in the slot tests. It only has to be generous:
// a host that keeps its slot through a backoff makes these tests deadlock,
// and the wait turns that into a failure.
const slotWait = 30 * time.Second

// gatedHost hangs up at the banner on its first connection, so the
// enumerator spends one banner retry on it, and signals hungUp once it has.
// Each later connection waits for gate to close, then serves FTP.
type gatedHost struct {
	conns  atomic.Int32
	hungUp chan struct{}
	gate   chan struct{}
	srv    simnet.Handler
}

func (g *gatedHost) ServeConn(nw *simnet.Network, conn net.Conn) {
	if g.conns.Add(1) == 1 {
		conn.Close()
		close(g.hungUp)
		return
	}
	<-g.gate
	g.srv.ServeConn(nw, conn)
}

// slotNet builds a network with a gatedHost at srvIP and, at the addresses
// after it, one plain anonymous server per gate, each of whose connections
// waits for its gate to close; a nil gate serves at once.
func slotNet(t *testing.T, gates ...chan struct{}) (*simnet.Network, *gatedHost) {
	t.Helper()
	serve := func(ip simnet.IP) simnet.Handler {
		srv, err := ftpserver.New(ftpserver.Config{
			Pers:           personality.ByKey(personality.KeyProFTPD135),
			Driver:         richFS(),
			PublicIP:       ip,
			AllowAnonymous: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv.SimHandler()
	}
	provider := simnet.NewStaticProvider()
	a := &gatedHost{hungUp: make(chan struct{}), gate: make(chan struct{}), srv: serve(srvIP)}
	provider.Add(srvIP, 21, a)
	for i, gate := range gates {
		ip := simnet.IP(uint32(srvIP) + uint32(i) + 1)
		h := serve(ip)
		if gate != nil {
			inner := h
			h = simnet.HandlerFunc(func(nw *simnet.Network, conn net.Conn) {
				<-gate
				inner.ServeConn(nw, conn)
			})
		}
		provider.Add(ip, 21, h)
	}
	return simnet.NewNetwork(provider), a
}

func slotFleet(nw *simnet.Network, reg *obs.Registry, base time.Duration) *Fleet {
	return &Fleet{
		Cfg: Config{
			Timeout: slotWait,
			Retry:   RetryPolicy{Attempts: 2, BaseDelay: base},
		},
		Network:    nw,
		SourceBase: simnet.MustParseIP("99.1.0.0"),
		Workers:    1,
		Metrics:    reg,
	}
}

// nextRecord receives one record from out, failing after slotWait.
func nextRecord(t *testing.T, out <-chan *dataset.HostRecord, why string) *dataset.HostRecord {
	t.Helper()
	select {
	case rec, ok := <-out:
		if !ok {
			t.Fatalf("out closed, want a record: %s", why)
		}
		return rec
	case <-time.After(slotWait):
		t.Fatalf("no record after %v: %s", slotWait, why)
	}
	return nil
}

// waitRun waits for Run's done channel, failing after slotWait.
func waitRun(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(slotWait):
		t.Errorf("Run did not return within %v", slotWait)
	}
}

// checkRetried requires the banner-retry host's record: one retry, then a
// full enumeration over the second connection.
func checkRetried(t *testing.T, rec *dataset.HostRecord) {
	t.Helper()
	if rec.IP != srvIP.String() || rec.Retries != 1 || !rec.FTP || !rec.AnonymousOK || rec.FailureClass != "" {
		t.Errorf("banner-retry host %s: retries=%d ftp=%v anon=%v class=%q, want %s with 1 retry, logged in",
			rec.IP, rec.Retries, rec.FTP, rec.AnonymousOK, rec.FailureClass, srvIP)
	}
}

// TestFleetBackoffHoldsNoSlot: with one slot, host A hangs up at the banner
// and its redial cannot get a banner until host B's record is out. Only a
// fleet whose parked host gives its slot back can enumerate B meanwhile;
// one that keeps the slot through the backoff deadlocks.
func TestFleetBackoffHoldsNoSlot(t *testing.T) {
	nw, a := slotNet(t, nil)
	reg := obs.NewRegistry()
	in := make(chan simnet.IP, 2)
	in <- srvIP
	in <- srvIP + 1
	close(in)
	out := make(chan *dataset.HostRecord, 2)
	done := make(chan struct{})
	go func() {
		slotFleet(nw, reg, time.Millisecond).Run(context.Background(), in, out)
		close(done)
	}()
	released := false
	t.Cleanup(func() {
		if !released {
			close(a.gate)
		}
		waitRun(t, done)
	})

	b := nextRecord(t, out, "host A kept the only slot through its backoff")
	if b.IP != (srvIP+1).String() || !b.AnonymousOK {
		t.Fatalf("first record is %s (anon=%v), want host B %s", b.IP, b.AnonymousOK, srvIP+1)
	}
	close(a.gate)
	released = true
	checkRetried(t, nextRecord(t, out, "host A never finished"))
	if _, ok := <-out; ok {
		t.Error("out carries a third record")
	}
	for _, g := range []string{"enum.inflight", "enum.backoff"} {
		if v := reg.Gauge(g).Load(); v != 0 {
			t.Errorf("%s = %d after Run, want 0", g, v)
		}
	}
}

// TestFleetBackoffGauge: while host A waits out its backoff, and then for a
// free slot held by host B, enum.backoff counts it.
func TestFleetBackoffGauge(t *testing.T) {
	bGate := make(chan struct{})
	nw, a := slotNet(t, bGate)
	close(a.gate)
	reg := obs.NewRegistry()
	in := make(chan simnet.IP, 2)
	in <- srvIP
	in <- srvIP + 1
	close(in)
	out := make(chan *dataset.HostRecord, 2)
	done := make(chan struct{})
	go func() {
		slotFleet(nw, reg, time.Millisecond).Run(context.Background(), in, out)
		close(done)
	}()

	// No event marks the park itself, so this polls the gauge; host B's
	// gate holds the only slot, so the gauge must stay at 1 until then.
	parked := reg.Gauge("enum.backoff")
	for deadline := time.Now().Add(slotWait); parked.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(bGate)
			waitRun(t, done)
			t.Fatalf("enum.backoff = %d, want 1 while host A waits for host B's slot", parked.Load())
		}
	}
	if v := reg.Gauge("enum.inflight").Load(); v != 2 {
		t.Errorf("enum.inflight = %d with one host parked and one working, want 2", v)
	}
	close(bGate)
	waitRun(t, done)
	if v := parked.Load(); v != 0 {
		t.Errorf("enum.backoff = %d after Run, want 0", v)
	}
	if n := len(out); n != 2 {
		t.Errorf("%d records, want 2", n)
	}
}

// TestFleetInClosesDuringBackoff: in closes while the only slot's host is
// parked. Run must still hand that host a slot, deliver its record and
// close out; a fleet that leaks the slot it held when in closed hangs here.
func TestFleetInClosesDuringBackoff(t *testing.T) {
	nw, a := slotNet(t)
	close(a.gate)
	in := make(chan simnet.IP)
	out := make(chan *dataset.HostRecord, 1)
	go slotFleet(nw, nil, 50*time.Millisecond).Run(context.Background(), in, out)
	in <- srvIP
	<-a.hungUp
	close(in)
	checkRetried(t, nextRecord(t, out, "the parked host never got a slot back after in closed"))
	select {
	case _, ok := <-out:
		if ok {
			t.Error("out carries a second record")
		}
	case <-time.After(slotWait):
		t.Fatal("out still open after the last record")
	}
}

// TestFleetCancelDuringBackoff: ctx is cancelled while the only slot's host
// is parked. The park ends at once: Run returns and closes out well inside
// the backoff (at least 100 ms of a 200 ms base), the cut host yields no
// record, and no goroutine is left behind.
func TestFleetCancelDuringBackoff(t *testing.T) {
	nw, a := slotNet(t)
	close(a.gate)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan simnet.IP, 1)
	in <- srvIP
	out := make(chan *dataset.HostRecord, 1)
	done := make(chan struct{})
	go func() {
		slotFleet(nw, nil, 200*time.Millisecond).Run(ctx, in, out)
		close(done)
	}()
	<-a.hungUp
	cancel()
	start := time.Now()
	waitRun(t, done)
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Errorf("Run returned %v after the cancel, want well inside the backoff", d)
	}
	for rec := range out {
		t.Errorf("the host cut in its backoff delivered a record: %+v", rec)
	}
	// Server sessions and pipe timers wind down on their own after Run;
	// poll until the count is back.
	for deadline := time.Now().Add(slotWait); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Run, baseline %d", runtime.NumGoroutine(), base)
		}
	}
}
