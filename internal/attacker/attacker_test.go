package attacker

import (
	"context"
	"testing"
	"time"

	"ftpcloud/internal/ftp"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

func testTarget(t *testing.T) (*simnet.Network, simnet.IP, *vfs.FS) {
	t.Helper()
	ip := simnet.MustParseIP("100.64.0.1")
	root := vfs.NewDir("/", vfs.Perm777)
	root.Add(vfs.NewDir("public_html", vfs.Perm777))
	fs := vfs.New(root)
	srv, err := ftpserver.New(ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         fs,
		PublicIP:       ip,
		AllowAnonymous: true,
		AnonWritable:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(ip, 21, srv.SimHandler())
	return simnet.NewNetwork(provider), ip, fs
}

func TestDefaultMixComposition(t *testing.T) {
	bots := DefaultMix(457, 42, 0.30)
	if len(bots) != 457 {
		t.Fatalf("bots = %d", len(bots))
	}
	byProfile := map[Profile]int{}
	concentrated := 0
	for _, b := range bots {
		byProfile[b.Profile]++
		if b.Source>>24 == 61 {
			concentrated++
		}
	}
	if byProfile[ProfileCVEExploit] != 1 || byProfile[ProfileSeagateRAT] != 1 {
		t.Errorf("rare profiles: %+v", byProfile)
	}
	if byProfile[ProfilePortBouncer] != 8 {
		t.Errorf("port bouncers = %d, want 8", byProfile[ProfilePortBouncer])
	}
	if byProfile[ProfileTLSFingerprint] != 36 {
		t.Errorf("tls fingerprinters = %d, want 36", byProfile[ProfileTLSFingerprint])
	}
	share := float64(concentrated) / 457
	if share < 0.25 || share > 0.35 {
		t.Errorf("concentrated share = %.2f", share)
	}
	if byProfile[ProfileScannerOnly] == 0 || byProfile[ProfileHTTPProbe] == 0 {
		t.Errorf("background scanners missing: %+v", byProfile)
	}
}

func TestDefaultMixDefaultN(t *testing.T) {
	if got := len(DefaultMix(0, 1, 0.3)); got != 457 {
		t.Errorf("default n = %d", got)
	}
}

func TestWriteProberLeavesNoMarker(t *testing.T) {
	nw, ip, fs := testTarget(t)
	fleet := &Fleet{
		Network: nw,
		Bots:    []Bot{{Source: simnet.MustParseIP("9.1.1.1"), Profile: ProfileWriteProber, Seed: 5}},
		Targets: []simnet.IP{ip},
		Timeout: 5 * time.Second,
	}
	stats := fleet.Run(context.Background())
	if stats.Errors != 0 {
		t.Fatalf("errors: %d", stats.Errors)
	}
	// Probe uploads hello.world.txt then deletes it.
	if fs.Lookup("/hello.world.txt") != nil {
		t.Error("probe marker not deleted")
	}
}

func TestFtpchk3LeavesStages(t *testing.T) {
	nw, ip, fs := testTarget(t)
	fleet := &Fleet{
		Network: nw,
		Bots:    []Bot{{Source: simnet.MustParseIP("9.1.1.2"), Profile: ProfileFtpchk3, Seed: 5}},
		Targets: []simnet.IP{ip},
		Timeout: 5 * time.Second,
	}
	fleet.Run(context.Background())
	if fs.Lookup("/ftpchk3.txt") == nil || fs.Lookup("/ftpchk3.php") == nil {
		t.Error("ftpchk3 stages missing")
	}
}

func TestWarezMkdirCreatesSignatureDir(t *testing.T) {
	nw, ip, fs := testTarget(t)
	fleet := &Fleet{
		Network: nw,
		Bots:    []Bot{{Source: simnet.MustParseIP("9.1.1.3"), Profile: ProfileWarezMkdir, Seed: 987654321}},
		Targets: []simnet.IP{ip},
		Timeout: 5 * time.Second,
	}
	fleet.Run(context.Background())
	found := false
	fs.Root().Walk("/", func(p string, n *vfs.Node) bool {
		if n.IsDir && len(n.Name) == 13 && n.Name[12] == 'p' {
			found = true
		}
		return true
	})
	if !found {
		t.Error("warez directory not created")
	}
}

func TestPortBouncerHitsTarget(t *testing.T) {
	nw, ip, _ := testTarget(t)
	third := simnet.MustParseIP("203.0.113.66")
	l, err := nw.Listen(third, 9999)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hit := make(chan struct{}, 1)
	go func() {
		if conn, err := l.Accept(); err == nil {
			conn.Close()
			hit <- struct{}{}
		}
	}()
	// The ProFTPD target validates PORT, so the bounce is rejected —
	// switch to a vulnerable personality for this test.
	vulnIP := simnet.MustParseIP("100.64.0.9")
	srv, err := ftpserver.New(ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyHostedHomePL),
		Driver:         vfs.New(nil),
		PublicIP:       vulnIP,
		AllowAnonymous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the same provider via a fresh registration.
	provider := simnet.NewStaticProvider()
	provider.Add(vulnIP, 21, srv.SimHandler())
	nw.SetProvider(provider)
	_ = ip

	fleet := &Fleet{
		Network:      nw,
		Bots:         []Bot{{Source: simnet.MustParseIP("9.1.1.4"), Profile: ProfilePortBouncer, Seed: 1}},
		Targets:      []simnet.IP{vulnIP},
		BounceTarget: ftp.HostPort{IP: third.Octets(), Port: 9999},
		Timeout:      5 * time.Second,
	}
	fleet.Run(context.Background())
	select {
	case <-hit:
	case <-time.After(3 * time.Second):
		t.Fatal("third party never contacted")
	}
}

func TestProfileStrings(t *testing.T) {
	profiles := []Profile{
		ProfileScannerOnly, ProfileHTTPProbe, ProfileCredGuesser, ProfileWriteProber,
		ProfileTraverser, ProfileFtpchk3, ProfilePortBouncer, ProfileCVEExploit,
		ProfileSeagateRAT, ProfileTLSFingerprint, ProfileWarezMkdir, Profile(0),
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		s := p.String()
		if s == "" || seen[s] {
			t.Errorf("profile %d name %q", p, s)
		}
		seen[s] = true
	}
}

func TestFleetAgainstDeadTarget(t *testing.T) {
	nw := simnet.NewNetwork(nil)
	fleet := &Fleet{
		Network: nw,
		Bots:    []Bot{{Source: 1, Profile: ProfileScannerOnly}},
		Targets: []simnet.IP{simnet.MustParseIP("100.64.0.99")},
		Timeout: time.Second,
	}
	stats := fleet.Run(context.Background())
	if stats.Errors != 1 {
		t.Errorf("dead target errors = %d", stats.Errors)
	}
}
