package attacker

import (
	"context"
	"testing"
	"time"

	"ftpcloud/internal/certs"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

// TestAllProfilesRunCleanly drives one bot of every profile against a
// TLS-capable writable honeypot-like target and requires zero errors.
func TestAllProfilesRunCleanly(t *testing.T) {
	pool, err := certs.GeneratePool(6, []certs.Spec{
		{Name: "c", CommonName: "target.example.org", SelfSigned: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ip := simnet.MustParseIP("100.64.2.1")
	root := vfs.NewDir("/", vfs.Perm777)
	root.Add(vfs.NewDir("public_html", vfs.Perm777))
	srv, err := ftpserver.New(ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         vfs.New(root),
		PublicIP:       ip,
		AllowAnonymous: true,
		AnonWritable:   true,
		Cert:           pool.Get("c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(ip, 21, srv.SimHandler())
	nw := simnet.NewNetwork(provider)

	profiles := []Profile{
		ProfileScannerOnly, ProfileHTTPProbe, ProfileCredGuesser,
		ProfileWriteProber, ProfileTraverser, ProfileFtpchk3,
		ProfilePortBouncer, ProfileCVEExploit, ProfileSeagateRAT,
		ProfileTLSFingerprint, ProfileWarezMkdir,
	}
	bots := make([]Bot, len(profiles))
	for i, p := range profiles {
		bots[i] = Bot{Source: simnet.IP(0x09000001 + uint32(i)), Profile: p, Seed: uint64(i + 1)}
	}
	fleet := &Fleet{
		Network:      nw,
		Bots:         bots,
		Targets:      []simnet.IP{ip},
		BounceTarget: ftp.HostPort{IP: [4]byte{203, 0, 113, 66}, Port: 9999},
		Timeout:      5 * time.Second,
	}
	stats := fleet.Run(context.Background())
	if stats.BotsRun != len(profiles) {
		t.Errorf("bots run = %d", stats.BotsRun)
	}
	// The bounce target does not exist, so the bouncer's LIST leg fails
	// at the server side, not the bot; tolerate at most that error.
	if stats.Errors > 1 {
		t.Errorf("errors = %d (profiles should handle this target)", stats.Errors)
	}
	if stats.Sessions != len(profiles) {
		t.Errorf("sessions = %d", stats.Sessions)
	}
	if len(stats.ByProfile) != len(profiles) {
		t.Errorf("profiles recorded = %d", len(stats.ByProfile))
	}
}

// TestCredentialGuesserSucceedsOnWeakTarget verifies the guesser actually
// logs in when a dictionary credential matches.
func TestCredentialGuesserSucceedsOnWeakTarget(t *testing.T) {
	ip := simnet.MustParseIP("100.64.2.2")
	rec := &eventRecorder{}
	srv, err := ftpserver.New(ftpserver.Config{
		Pers:     personality.ByKey(personality.KeyProFTPD135),
		Driver:   vfs.New(nil),
		PublicIP: ip,
		Users:    map[string]string{"admin": "admin"},
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(ip, 21, srv.SimHandler())
	nw := simnet.NewNetwork(provider)

	fleet := &Fleet{
		Network: nw,
		Bots:    []Bot{{Source: simnet.MustParseIP("9.2.2.2"), Profile: ProfileCredGuesser, Seed: 0}},
		Targets: []simnet.IP{ip},
		Timeout: 5 * time.Second,
	}
	fleet.Run(context.Background())
	if !rec.sawLogin {
		t.Error("guesser never hit the weak credential (seed 0 starts at admin/admin)")
	}
}

type eventRecorder struct{ sawLogin bool }

func (r *eventRecorder) Event(e ftpserver.Event) {
	if e.Kind == ftpserver.EventLoginOK {
		r.sawLogin = true
	}
}
