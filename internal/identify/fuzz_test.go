package identify

import (
	"context"
	"net"
	"testing"
	"time"

	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

const (
	// fuzzWait is the fuzzed calls' BannerWait. Identify reads at most
	// nine times (banner, post-trigger, and up to seven more while the
	// opening is too short to call), each under one window, so a call
	// returns within fuzzCallLimit.
	fuzzWait      = 20 * time.Millisecond
	fuzzCallLimit = 10*fuzzWait + 500*time.Millisecond
	fuzzMaxBytes  = 64
	// fuzzChunks bounds the scripted writes; the rest of the payload goes
	// out in one last write.
	fuzzChunks = 16
	// fuzzCancelWait is the cancelled calls' BannerWait: far longer than
	// fuzzCancelLimit, so a call that returns within that limit after the
	// cancel was cut by it, not by a window.
	fuzzCancelWait  = 2 * time.Second
	fuzzCancelLimit = 500 * time.Millisecond
)

// FuzzIdentify feeds the identification read loop a hostile byte stream
// over simnet: the server writes payload in chunks whose sizes and gaps
// come from cuts (low nibble: 1–16 bytes; high nibble: a gap of up to
// about two banner windows), then waits for the client to hang up. With
// cancelAt zero, Identify runs on its own and must not panic, must keep
// its banner within MaxBytes, must report the protocol SniffProtocol gives
// that banner, and must return within a fixed multiple of BannerWait. With
// cancelAt non-zero, a one-worker Stage identifies the endpoint and the
// server cancels the run after its first cancelAt-1 chunks, or once the
// payload is out (cancelAt 1 cancels before any byte). The stage must
// return promptly, pass or shed exactly the identifications its counters
// count, and drop the cut one when no byte had gone out before the cancel.
func FuzzIdentify(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload, cuts []byte, cancelAt uint8) {
		if len(payload) > 512 {
			payload = payload[:512]
		}
		cuts = cuts[:min(len(cuts), fuzzChunks)]
		wait := fuzzWait
		if cancelAt > 0 {
			wait = fuzzCancelWait
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var canceledAt time.Time
		var sent int // bytes written before the cancel
		canceled := make(chan struct{})
		serve := func(_ *simnet.Network, conn net.Conn) {
			defer conn.Close()
			rest := payload
			for i := 0; len(rest) > 0 && (cancelAt == 0 || i < int(cancelAt)-1); i++ {
				n := len(rest)
				if i < len(cuts) {
					n = min(n, int(cuts[i]&15)+1)
					time.Sleep(time.Duration(cuts[i]>>4) * fuzzWait / 8)
				}
				if _, err := conn.Write(rest[:n]); err != nil {
					break
				}
				rest = rest[n:]
			}
			if cancelAt > 0 {
				sent = len(payload) - len(rest)
				canceledAt = time.Now()
				cancel()
				close(canceled)
			}
			readAll(conn)
		}
		ip := simnet.MustParseIP("198.51.100.7")
		nw := simnet.NewNetwork(scriptedNet{ip: serve})
		cfg := Config{BannerWait: wait, MaxBytes: fuzzMaxBytes}

		if cancelAt == 0 {
			cfg.Dialer = simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")}
			start := time.Now()
			res := Identify(ctx, cfg, ip.String())
			if d := time.Since(start); d > fuzzCallLimit {
				t.Errorf("Identify took %v, limit %v", d, fuzzCallLimit)
			}
			if len(res.Banner) > fuzzMaxBytes {
				t.Errorf("banner of %d bytes, MaxBytes %d", len(res.Banner), fuzzMaxBytes)
			}
			if want := fingerprint.SniffProtocol([]byte(res.Banner)); res.Protocol != want {
				t.Errorf("protocol %q, SniffProtocol of the banner %q gives %q", res.Protocol, res.Banner, want)
			}
			return
		}

		reg := obs.NewRegistry()
		stage := &Stage{Cfg: cfg, Network: nw, SourceBase: simnet.MustParseIP("250.2.0.1"), Workers: 1, Metrics: reg}
		in := make(chan simnet.IP, 1)
		in <- ip
		close(in)
		ftp := make(chan simnet.IP, 1)
		shed := make(chan Result, 1)
		stage.Run(ctx, in, ftp, shed)
		<-canceled
		if d := time.Since(canceledAt); d > fuzzCancelLimit {
			t.Errorf("Stage.Run returned %v after the cancel, limit %v", d, fuzzCancelLimit)
		}
		emitted := uint64(len(ftp) + len(shed))
		dials, passed, shedN := reg.Counter("identify.dials").Load(), reg.Counter("identify.passed").Load(), reg.Counter("identify.shed").Load()
		if passed+shedN != dials || emitted != dials {
			t.Errorf("dials %d, passed %d, shed %d, %d results out", dials, passed, shedN, emitted)
		}
		if sent == 0 && emitted != 0 {
			t.Errorf("an identification cut before any byte came back was passed or shed")
		}
	})
}
