package enumerator

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ftpcloud/internal/certs"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

// flakyBanner cuts its first connection mid-banner — leaving a partial line
// in the client's read buffer — and serves FTP from the second on, so the
// enumerator spends one banner retry on it.
type flakyBanner struct {
	conns atomic.Int32
	srv   simnet.Handler
}

func (f *flakyBanner) ServeConn(nw *simnet.Network, conn net.Conn) {
	if f.conns.Add(1) == 1 {
		conn.Write([]byte("220-Welc"))
		conn.Close()
		return
	}
	f.srv.ServeConn(nw, conn)
}

// mixedHosts builds a network whose hosts exercise every path that leaves
// state in a control-channel wrapper or data buffer, and returns
// them in an order where each kind is followed by a different one, plus the
// banner-retry host so a second pass can rewind it.
func mixedHosts(t *testing.T) (*simnet.Network, []simnet.IP, *flakyBanner) {
	t.Helper()
	pool, err := certs.GeneratePool(13, []certs.Spec{
		{Name: "tls", CommonName: "tls.example.org", SelfSigned: true},
		{Name: "ftps", CommonName: "*.home.pl", SelfSigned: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	var order []simnet.IP
	next := uint32(srvIP)
	add := func(h simnet.Handler) {
		ip := simnet.IP(next)
		next++
		if h != nil {
			provider.Add(ip, 21, h)
		}
		order = append(order, ip)
	}
	serve := func(cfg ftpserver.Config) simnet.Handler {
		cfg.PublicIP = simnet.IP(next)
		// A node without an mtime lists at the wall clock, which can
		// tick between the two passes.
		cfg.Driver.Root().Walk("/", func(_ string, n *vfs.Node) bool {
			n.MTime = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
			return true
		})
		srv, err := ftpserver.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv.SimHandler()
	}
	proftpd := personality.ByKey(personality.KeyProFTPD135)

	add(serve(ftpserver.Config{Pers: proftpd, Driver: richFS(), AllowAnonymous: true}))
	add(serve(ftpserver.Config{Pers: proftpd, Driver: richFS(), AllowAnonymous: true,
		Cert: pool.Get("tls"), RequireTLS: true}))
	add(serve(ftpserver.Config{Pers: personality.ByKey(personality.KeyQNAPNAS), Driver: richFS(),
		AllowAnonymous: true, InternalIP: simnet.MustParseIP("192.168.1.77")}))
	add(simnet.HandlerFunc(garbageSpewServer))
	flaky := &flakyBanner{srv: serve(ftpserver.Config{Pers: proftpd, Driver: richFS(), AllowAnonymous: true})}
	add(flaky)
	// The 421 lands on the 20th request, AUTH TLS, so only QUIT follows
	// it: a command sent after a 421 races the server's close, and its
	// failure class ("io" or "eof") differs from run to run.
	add(serve(ftpserver.Config{Pers: proftpd, Driver: richFS(), AllowAnonymous: true, RequestLimit: 19}))
	add(simnet.HandlerFunc(garbageHandler))
	add(serve(ftpserver.Config{Pers: proftpd, Driver: wideFS(12), AllowAnonymous: true,
		Cert: pool.Get("ftps")}))
	add(nil) // refused
	add(serve(ftpserver.Config{Pers: personality.ByKey(personality.KeyVsftpd302), Driver: richFS()}))
	add(serve(ftpserver.Config{Pers: proftpd, Driver: richFS(), AllowAnonymous: true}))
	return simnet.NewNetwork(provider), order, flaky
}

// TestFleetConnReuseMatchesFreshEnumerate is the use-after-release test for
// the ftp.Conn and data buffer a Fleet lends from host to host. A fleet of
// one worker, then of four, enumerates a sequence mixing AUTH TLS upgrades,
// a banner retry, mid-reply garbage, a request-limited host, NAT-leaking
// PASV and plain hosts; each record's JSONL must equal what Enumerate, which
// allocates both per host, writes for that host. With four workers a
// wrapper handed back while still in use would be shared, which -race
// reports and the records show.
func TestFleetConnReuseMatchesFreshEnumerate(t *testing.T) {
	src := simnet.MustParseIP("99.1.0.0")
	stamp := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	cfg := Config{
		Timeout: 5 * time.Second,
		TryTLS:  true,
		Retry:   RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond},
		Now:     func() time.Time { return stamp },
	}
	line := func(rec *dataset.HostRecord) string {
		b, err := dataset.AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	nw, order, flaky := mixedHosts(t)
	freshCfg := cfg
	freshCfg.Dialer = simnet.Dialer{Net: nw, Src: src}
	want := map[string]string{}
	kinds := map[string]bool{}
	for _, ip := range order {
		rec := Enumerate(context.Background(), freshCfg, ip.String())
		want[rec.IP] = line(rec)
		switch {
		case rec.FTPS != nil && rec.FTPS.RequiredPreLogin:
			kinds["tls-login"] = true
		case rec.FTPSCert() != nil:
			kinds["tls-end"] = true
		}
		if rec.Retries > 0 {
			kinds["banner-retry"] = true
		}
		if rec.FailureClass == FailProtocol {
			kinds["garbage"] = true
		}
		if rec.ConnTerminated && rec.FailureClass == "" {
			kinds["request-limit"] = true
		}
		if rec.PASVMismatch {
			kinds["nat-pasv"] = true
		}
		if !rec.PortOpen {
			kinds["refused"] = true
		}
	}
	for _, k := range []string{"tls-login", "tls-end", "banner-retry", "garbage", "request-limit", "nat-pasv", "refused"} {
		if !kinds[k] {
			t.Errorf("no host exercised %s", k)
		}
	}

	for _, workers := range []int{1, 4} {
		// Each pass runs against the same servers; only the
		// banner-retry host needs rewinding.
		flaky.conns.Store(0)
		in := make(chan simnet.IP, len(order))
		for _, ip := range order {
			in <- ip
		}
		close(in)
		out := make(chan *dataset.HostRecord, len(order))
		(&Fleet{Cfg: cfg, Network: nw, SourceBase: src, Workers: workers}).Run(context.Background(), in, out)
		n := 0
		for rec := range out {
			if workers == 1 && rec.IP != order[n].String() {
				t.Fatalf("record %d is %s, want %s: a 1-worker fleet keeps input order", n, rec.IP, order[n])
			}
			n++
			if got := line(rec); got != want[rec.IP] {
				t.Errorf("%d workers, host %s: fleet wrote\n%s\nfresh Enumerate wrote\n%s", workers, rec.IP, got, want[rec.IP])
			}
		}
		if n != len(order) {
			t.Fatalf("%d workers: fleet produced %d records, want %d", workers, n, len(order))
		}
	}
}
