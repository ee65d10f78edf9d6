package enumerator

import (
	"context"
	"testing"
	"time"

	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

// epsvOnlyPersonality is a hand-built profile for a stack that rejects
// classic PASV — the enumerator must fall back to RFC 2428 EPSV.
func epsvOnlyPersonality() *personality.Personality {
	return &personality.Personality{
		Key:      "test-epsv-only",
		Software: "ModernFTPd",
		Version:  "2.0",
		Banner:   "ModernFTPd 2.0 ready.",
		Syst:     "UNIX Type: L8",
		Reply331: "Password required for %USER%.",
		Category: personality.CategoryGeneric,
		Quirks: personality.Quirks{
			ValidatePORT: true,
			ListStyle:    vfs.StyleUnix,
			EPSVOnly:     true,
		},
	}
}

func TestEPSVFallback(t *testing.T) {
	root := vfs.NewDir("/", vfs.Perm755)
	pub := root.Add(vfs.NewDir("pub", vfs.Perm755))
	pub.Add(vfs.NewFile("data.txt", vfs.Perm644, 99))

	srv, err := ftpserver.New(ftpserver.Config{
		Pers:           epsvOnlyPersonality(),
		Driver:         vfs.New(root),
		PublicIP:       srvIP,
		AllowAnonymous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(srvIP, 21, srv.SimHandler())
	nw := simnet.NewNetwork(provider)

	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.AnonymousOK {
		t.Fatalf("login failed: %+v", rec)
	}
	found := false
	for _, f := range rec.Files {
		if f.Path == "/pub/data.txt" {
			found = true
		}
	}
	if !found {
		t.Errorf("EPSV fallback traversal incomplete: %d files", len(rec.Files))
	}
}

// TestRequestDelayPacesRequests verifies the paper's 2-requests-per-second
// etiquette is actually enforced between consecutive commands.
func TestRequestDelayPacesRequests(t *testing.T) {
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyVsftpd302),
		Driver:         vfs.New(nil),
		AllowAnonymous: true,
	})
	cfg := enumConfig(nw)
	cfg.RequestDelay = 15 * time.Millisecond
	cfg.TryTLS = false
	start := time.Now()
	rec := Enumerate(context.Background(), cfg, srvIP.String())
	elapsed := time.Since(start)
	if rec.RequestsUsed < 5 {
		t.Fatalf("too few requests to measure pacing: %d", rec.RequestsUsed)
	}
	minExpected := time.Duration(rec.RequestsUsed-1) * cfg.RequestDelay
	if elapsed < minExpected {
		t.Errorf("session took %v for %d requests; pacing requires ≥%v",
			elapsed, rec.RequestsUsed, minExpected)
	}
}

// TestSymlinksNotTraversed plants a directory symlink cycle and verifies the
// enumerator records the link without following it.
func TestSymlinksNotTraversed(t *testing.T) {
	root := vfs.NewDir("/", vfs.Perm755)
	web := root.Add(vfs.NewDir("public_html", vfs.Perm755))
	web.Add(vfs.NewFile("index.html", vfs.Perm644, 100))
	link := vfs.NewSymlink("www", "public_html")
	root.Add(link)
	// A pathological self-referential link.
	root.Add(vfs.NewSymlink("loop", "."))

	srv, err := ftpserver.New(ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         vfs.New(root),
		PublicIP:       srvIP,
		AllowAnonymous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(srvIP, 21, srv.SimHandler())
	nw := simnet.NewNetwork(provider)

	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.AnonymousOK {
		t.Fatal("login failed")
	}
	sawLink := false
	for _, f := range rec.Files {
		if f.Name == "www" {
			sawLink = true
			if f.IsDir {
				t.Error("symlink recorded as directory")
			}
		}
	}
	if !sawLink {
		t.Error("symlink missing from listing")
	}
	// Bounded request usage proves no cycle-following.
	if rec.RequestsUsed > 40 {
		t.Errorf("requests = %d; symlink loop followed?", rec.RequestsUsed)
	}
}
