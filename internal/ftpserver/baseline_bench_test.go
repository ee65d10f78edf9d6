package ftpserver

import (
	"testing"
	"time"

	"ftpcloud/internal/ftp"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
)

// BenchmarkSessionCommands measures steady-state per-command cost of the
// session loop over simnet: a logged-in session cycling NOOP, PWD, TYPE,
// SIZE — the control-channel hot path with no data transfers.
func BenchmarkSessionCommands(b *testing.B) {
	srv, err := New(Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         testFS(),
		HostName:       "bench.example.org",
		AllowAnonymous: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	serverIP := simnet.MustParseIP("5.6.7.8")
	clientIP := simnet.MustParseIP("1.2.3.4")
	provider := simnet.NewStaticProvider()
	provider.Add(serverIP, 21, srv.SimHandler())
	nw := simnet.NewNetwork(provider)

	nc, err := nw.DialFrom(clientIP, serverIP, 21)
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	c := ftp.NewConn(nc)
	c.Timeout = 10 * time.Second
	if _, err := c.ReadReply(); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Cmd("USER", "anonymous"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Cmd("PASS", "x@y"); err != nil {
		b.Fatal(err)
	}

	cmds := [][2]string{{"NOOP", ""}, {"PWD", ""}, {"TYPE", "I"}, {"SIZE", "/pub/hello.txt"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd := cmds[i%len(cmds)]
		if _, err := c.Cmd(cmd[0], cmd[1]); err != nil {
			b.Fatal(err)
		}
	}
}
