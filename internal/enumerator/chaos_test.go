package enumerator

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

// The chaos suite proves the tentpole property: every hostile-server fault
// class yields a terminating enumeration and a classified, partial record —
// never a hang and never a silently dropped host.

// portFaults injects one profile into every connection matching the port
// predicate (control = port 21, data = everything else).
type portFaults struct {
	match func(port uint16) bool
	prof  simnet.FaultProfile
}

func (f portFaults) FaultFor(_, _ simnet.IP, port uint16) *simnet.FaultProfile {
	if !f.match(port) {
		return nil
	}
	p := f.prof
	return &p
}

func controlPort(p uint16) bool { return p == 21 }
func dataPort(p uint16) bool    { return p != 21 }

// wideFS builds a tree broad enough that traversal spans many requests and
// many data connections.
func wideFS(dirs int) *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm755)
	for i := 0; i < dirs; i++ {
		d := root.Add(vfs.NewDir(fmt.Sprintf("dir%02d", i), vfs.Perm755))
		d.Add(vfs.NewFile("file.txt", vfs.Perm644, 128))
	}
	return vfs.New(root)
}

func chaosNet(t *testing.T, fs *vfs.FS) *simnet.Network {
	t.Helper()
	return buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         fs,
		AllowAnonymous: true,
	})
}

func TestChaosSlowDripBannerTimesOut(t *testing.T) {
	nw := chaosNet(t, richFS())
	nw.Faults = portFaults{match: controlPort, prof: simnet.FaultProfile{
		DripBytes: 1, DripDelay: 300 * time.Millisecond,
	}}
	cfg := enumConfig(nw)
	cfg.Timeout = 100 * time.Millisecond
	cfg.HostBudget = -1 // isolate the per-command deadline

	rec := Enumerate(context.Background(), cfg, srvIP.String())
	if rec.FTP {
		t.Error("drip-starved banner classified as FTP")
	}
	if rec.FailureClass != FailTimeout {
		t.Errorf("FailureClass = %q, want %q", rec.FailureClass, FailTimeout)
	}
	if rec.Retries == 0 {
		t.Error("transient banner timeout was not retried")
	}
	if !strings.HasPrefix(rec.Error, "banner:") {
		t.Errorf("Error = %q", rec.Error)
	}
}

func TestChaosMidSessionResetYieldsPartialRecord(t *testing.T) {
	nw := chaosNet(t, wideFS(30))
	// Enough control bytes to survive banner, login, and metadata, then
	// die mid-BFS.
	nw.Faults = portFaults{match: controlPort, prof: simnet.FaultProfile{
		ResetAfterBytes: 2500,
	}}
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.FTP || !rec.AnonymousOK {
		t.Fatalf("session died before traversal; raise ResetAfterBytes: %+v", rec)
	}
	if !rec.Partial {
		t.Error("reset mid-BFS not flagged Partial")
	}
	if rec.FailureClass != FailReset {
		t.Errorf("FailureClass = %q, want %q", rec.FailureClass, FailReset)
	}
	if !rec.ConnTerminated {
		t.Error("dead control connection not recorded as terminated")
	}
	// The satellite guarantee: data gathered before the fault survives.
	if len(rec.Files) == 0 {
		t.Error("partial traversal results were dropped")
	}
}

func TestChaosStalledDataChannelSkipsSubtreeNotHost(t *testing.T) {
	nw := chaosNet(t, wideFS(8))
	nw.Faults = portFaults{match: dataPort, prof: simnet.FaultProfile{
		StallAfterBytes: 16,
	}}
	cfg := enumConfig(nw)
	cfg.DataIdleTimeout = 100 * time.Millisecond

	start := time.Now()
	rec := Enumerate(context.Background(), cfg, srvIP.String())
	if !rec.AnonymousOK {
		t.Fatalf("record: %+v", rec)
	}
	if !rec.Partial || rec.FailureClass != FailStall {
		t.Errorf("stall not classified: partial=%v class=%q", rec.Partial, rec.FailureClass)
	}
	if rec.SkippedDirs == 0 {
		t.Error("stalled listings did not record skipped directories")
	}
	if rec.ConnTerminated {
		t.Error("stalled data channel killed the host, not just the subtree")
	}
	// Every data connection stalls after 16 bytes; the idle deadline must
	// bound each one, so the whole host resolves in seconds, not minutes.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stalled host took %v to resolve", elapsed)
	}
}

func TestChaosPrematureEOFOnControl(t *testing.T) {
	nw := chaosNet(t, richFS())
	nw.Faults = portFaults{match: controlPort, prof: simnet.FaultProfile{
		CloseAfterBytes: 600,
	}}
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.FTP {
		t.Fatalf("EOF fired before the banner; raise CloseAfterBytes: %+v", rec)
	}
	if !rec.Partial || rec.FailureClass != FailEOF {
		t.Errorf("premature EOF not classified: partial=%v class=%q", rec.Partial, rec.FailureClass)
	}
	if !rec.ConnTerminated {
		t.Error("EOF'd control connection not recorded as terminated")
	}
}

// garbageSpewServer greets politely, then answers every command with one
// endless unterminated line.
func garbageSpewServer(_ *simnet.Network, conn net.Conn) {
	defer conn.Close()
	c := make([]byte, 0, 4096)
	c = append(c, []byte("220 welcome\r\n")...)
	if _, err := conn.Write(c); err != nil {
		return
	}
	buf := make([]byte, 512)
	if _, err := conn.Read(buf); err != nil {
		return
	}
	junk := []byte(strings.Repeat("#", 4096))
	for i := 0; i < 64; i++ {
		if _, err := conn.Write(junk); err != nil {
			return
		}
	}
}

func TestChaosGarbageReplyClassifiedProtocol(t *testing.T) {
	provider := simnet.NewStaticProvider()
	provider.Add(srvIP, 21, simnet.HandlerFunc(garbageSpewServer))
	nw := simnet.NewNetwork(provider)

	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.FTP {
		t.Fatalf("banner rejected: %+v", rec)
	}
	if !rec.Partial || rec.FailureClass != FailProtocol {
		t.Errorf("garbage reply not classified: partial=%v class=%q", rec.Partial, rec.FailureClass)
	}
}

// flakyDialer fails the first N dials with a transient error, then delegates.
type flakyDialer struct {
	inner Dialer
	fails int
}

func (d *flakyDialer) Dial(network, address string) (net.Conn, error) {
	if d.fails > 0 {
		d.fails--
		return nil, errors.New("simnet: connection timed out")
	}
	return d.inner.Dial(network, address)
}

func TestChaosConnectRetryRecovers(t *testing.T) {
	nw := chaosNet(t, richFS())
	cfg := enumConfig(nw)
	cfg.Dialer = &flakyDialer{inner: simnet.Dialer{Net: nw, Src: cliIP}, fails: 1}
	cfg.Retry = RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond}

	rec := Enumerate(context.Background(), cfg, srvIP.String())
	if !rec.FTP || !rec.AnonymousOK {
		t.Fatalf("retry did not recover: %+v", rec)
	}
	if rec.Retries != 1 {
		t.Errorf("Retries = %d, want 1", rec.Retries)
	}
}

func TestChaosConnectFailureAfterRetriesClassified(t *testing.T) {
	nw := chaosNet(t, richFS())
	cfg := enumConfig(nw)
	cfg.Dialer = &flakyDialer{inner: simnet.Dialer{Net: nw, Src: cliIP}, fails: 99}
	cfg.Retry = RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond}

	rec := Enumerate(context.Background(), cfg, srvIP.String())
	if rec.PortOpen || rec.FTP {
		t.Errorf("unreachable host recorded as open: %+v", rec)
	}
	if rec.FailureClass != FailConnect {
		t.Errorf("FailureClass = %q, want %q", rec.FailureClass, FailConnect)
	}
	if rec.Retries != 2 {
		t.Errorf("Retries = %d, want 2", rec.Retries)
	}
}

func TestChaosRefusedConnectionNotRetried(t *testing.T) {
	nw := simnet.NewNetwork(nil) // nothing listens anywhere
	cfg := enumConfig(nw)
	cfg.Retry = RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond}

	rec := Enumerate(context.Background(), cfg, "4.4.4.4")
	if rec.PortOpen {
		t.Errorf("refused host recorded as open: %+v", rec)
	}
	if rec.Retries != 0 {
		t.Errorf("definitive refusal was retried %d times", rec.Retries)
	}
	if rec.FailureClass != FailConnect {
		t.Errorf("FailureClass = %q, want %q", rec.FailureClass, FailConnect)
	}
}

func TestChaosHostTimeBudget(t *testing.T) {
	nw := chaosNet(t, wideFS(60))
	cfg := enumConfig(nw)
	cfg.RequestDelay = 5 * time.Millisecond
	cfg.HostBudget = 150 * time.Millisecond

	start := time.Now()
	rec := Enumerate(context.Background(), cfg, srvIP.String())
	if !rec.Partial || rec.FailureClass != FailBudgetTime {
		t.Errorf("budget exhaustion not classified: partial=%v class=%q",
			rec.Partial, rec.FailureClass)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("budgeted host took %v", elapsed)
	}
	if !rec.AnonymousOK || len(rec.Files) == 0 {
		t.Errorf("budget cut the host before any work: %+v", rec)
	}
}

func TestChaosHostByteBudget(t *testing.T) {
	nw := chaosNet(t, wideFS(60))
	cfg := enumConfig(nw)
	cfg.ByteBudget = 1024

	rec := Enumerate(context.Background(), cfg, srvIP.String())
	if !rec.Partial || rec.FailureClass != FailBudgetBytes {
		t.Errorf("byte budget not classified: partial=%v class=%q",
			rec.Partial, rec.FailureClass)
	}
	if rec.DataBytes == 0 {
		t.Error("DataBytes not accounted")
	}
	// The budget bounds data volume to within one read chunk.
	if rec.DataBytes > 1024+16<<10 {
		t.Errorf("read %d data bytes against a 1 KiB budget", rec.DataBytes)
	}
}

func TestChaosCleanHostStaysUnflagged(t *testing.T) {
	// Control: with no faults injected, the robustness layer must not
	// invent degradation.
	nw := chaosNet(t, richFS())
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if rec.Partial || rec.FailureClass != "" || rec.SkippedDirs != 0 || rec.Retries != 0 {
		t.Errorf("clean host flagged degraded: %+v", rec)
	}
	if !rec.AnonymousOK || len(rec.Files) == 0 {
		t.Fatalf("clean enumeration broken: %+v", rec)
	}
}

func TestChaosConnectLatencyWithinTimeout(t *testing.T) {
	nw := chaosNet(t, richFS())
	nw.Faults = portFaults{match: controlPort, prof: simnet.FaultProfile{
		ConnectLatency: 50 * time.Millisecond,
	}}
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.AnonymousOK || rec.Partial {
		t.Errorf("slow-to-accept host mishandled: %+v", rec)
	}
}

// TestChaosCancelInterruptsStalledRead: cancellation cuts a host at once.
// The data channel stalls under a 30 s idle timeout; a cancel while the
// read blocks closes the connection, and Enumerate returns nil instead of
// waiting out the timeout and recording the stall.
func TestChaosCancelInterruptsStalledRead(t *testing.T) {
	nw := chaosNet(t, wideFS(4))
	nw.Faults = portFaults{match: dataPort, prof: simnet.FaultProfile{StallAfterBytes: 16}}
	cfg := enumConfig(nw)
	cfg.Timeout = 30 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The first data read blocks for the whole timeout; by then the
	// stall has long begun.
	time.AfterFunc(200*time.Millisecond, cancel)
	start := time.Now()
	if rec := Enumerate(ctx, cfg, srvIP.String()); rec != nil {
		t.Errorf("a host cut mid-read yielded a record: class=%q partial=%v", rec.FailureClass, rec.Partial)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("Enumerate returned %v after its start, want soon after the cancel at 200ms", d)
	}
}
