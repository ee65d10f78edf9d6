// Command ftpserved serves one FTP personality on a real TCP socket — the
// interop path for validating the server engine (and the enumerator)
// outside the simulation. A local testbed of diverse implementations was
// exactly how the paper hardened its enumerator.
//
// Usage:
//
//	ftpserved -addr 127.0.0.1:2121 -personality proftpd-1.3.5 -anon -writable
//	ftpserved -addr 127.0.0.1:2121 -max-conns 10000 -progress 5s
//	ftpserved -list
//
// ftpserved keeps no transfer or event log; honeypotd -events-out streams
// every session event of the honeypot study as JSON lines.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/vfs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ftpserved: %v\n", err)
		os.Exit(1)
	}
}

// demoFS builds a small example tree for manual testing.
func demoFS() *vfs.FS {
	root := vfs.NewDir("/", vfs.Perm755)
	pub := root.Add(vfs.NewDir("pub", vfs.Perm755))
	pub.Add(vfs.NewFileContent("README", vfs.Perm644,
		[]byte("ftpserved demo server (ftpcloud reproduction toolkit)\n")))
	pub.Add(vfs.NewFileContent("index.html", vfs.Perm644,
		[]byte("<html><body>hello from ftpserved</body></html>\n")))
	photos := pub.Add(vfs.NewDir("photos", vfs.Perm755))
	photos.Add(vfs.NewFile("DSC_0001.jpg", vfs.Perm644, 1_200_000))
	root.Add(vfs.NewDir("incoming", vfs.Perm777))
	return vfs.New(root)
}

// servedProgress renders the periodic -progress line: active connections,
// session admission rate, and shed count.
func servedProgress(w io.Writer, delta, cur obs.Snapshot, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	fmt.Fprintf(w, "progress: conns=%d sessions=%d (%.1f/s) shed=%d cmds=%d logins=%d\n",
		cur.Gauges["ftpserver.active"],
		cur.Counters["ftpserver.sessions"],
		float64(delta.Counters["ftpserver.sessions"])/secs,
		cur.Counters["ftpserver.shed"],
		cur.Counters["ftpserver.commands"],
		cur.Counters["ftpserver.logins"])
}

func writeSnapshot(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:2121", "listen address")
		persKey  = flag.String("personality", personality.KeyProFTPD135, "implementation profile key")
		anon     = flag.Bool("anon", true, "allow anonymous logins")
		writable = flag.Bool("writable", false, "allow anonymous writes")
		list     = flag.Bool("list", false, "list available personalities and exit")

		maxConns = flag.Int("max-conns", 0,
			"cap concurrent sessions; excess connections are shed with a 421 (0 = uncapped)")
		idleTimeout = flag.Duration("idle-timeout", 0,
			"disconnect sessions idle this long (0 = engine default 60s)")

		progress = flag.Duration("progress", 0,
			"emit a progress line (conns, sessions/s, sheds) to stderr at this interval (0 = off)")
		debugAddr = flag.String("debug-addr", "",
			"serve /debug/pprof, /debug/vars and /metrics on this address")
		metricsOut = flag.String("metrics-out", "",
			"write the final metrics snapshot (JSON) to this file")
	)
	flag.Parse()

	if *list {
		for _, p := range personality.All() {
			model := p.DeviceModel
			if model == "" {
				model = p.Software
			}
			fmt.Printf("%-24s %s\n", p.Key, model)
		}
		return nil
	}

	pers := personality.ByKey(*persKey)
	if pers == nil {
		return fmt.Errorf("unknown personality %q (use -list)", *persKey)
	}

	reg := obs.NewRegistry()
	srv, err := ftpserver.New(ftpserver.Config{
		Pers:           pers,
		Driver:         demoFS(),
		HostName:       "ftpserved.local",
		AllowAnonymous: *anon,
		AnonWritable:   *writable,
		MaxConns:       *maxConns,
		IdleTimeout:    *idleTimeout,
		Metrics:        reg,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, "ftpserved", reg)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "ftpserved: debug endpoints at http://%s/debug/pprof/ and /debug/vars\n", dbg.Addr())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Fprintf(os.Stderr, "ftpserved: %s serving %s (anon=%v writable=%v max-conns=%d)\n",
		l.Addr(), *persKey, *anon, *writable, *maxConns)

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting; in-flight
	// sessions run to completion on their own goroutines.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		l.Close()
	}()

	if *progress > 0 {
		rep := &obs.Reporter{Registry: reg, Interval: *progress, Format: servedProgress}
		defer rep.Start(ctx)()
	}
	if *metricsOut != "" {
		defer func() {
			if err := writeSnapshot(reg, *metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "ftpserved: metrics snapshot: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "ftpserved: wrote metrics snapshot to %s\n", *metricsOut)
			}
		}()
	}

	if err := srv.Serve(l); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "ftpserved: shutting down")
			return nil
		}
		return err
	}
	return nil
}
