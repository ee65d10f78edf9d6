package enumerator

import (
	"context"
	"testing"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/vfs"
)

// TestMLSDTraversal verifies the enumerator prefers machine-readable
// listings when FEAT advertises MLST, and that permissions arrive via the
// UNIX.mode fact.
func TestMLSDTraversal(t *testing.T) {
	// ProFTPD 1.3.5 advertises MLST in this registry.
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         richFS(),
		AllowAnonymous: true,
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.AnonymousOK {
		t.Fatal("login failed")
	}
	hasMLST := false
	for _, f := range rec.Feat {
		if len(f) >= 4 && f[:4] == "MLST" {
			hasMLST = true
		}
	}
	if !hasMLST {
		t.Fatal("FEAT does not advertise MLST; test premise broken")
	}
	paths := map[string]dataset.FileEntry{}
	for _, f := range rec.Files {
		paths[f.Path] = f
	}
	if e, ok := paths["/pub/secret.key"]; !ok || e.Read != dataset.ReadNo {
		t.Errorf("secret.key via MLSD: %+v", e)
	}
	if e, ok := paths["/pub/index.html"]; !ok || e.Read != dataset.ReadYes {
		t.Errorf("index.html via MLSD: %+v", e)
	}
	if e, ok := paths["/pub/photos/DSC_0001.jpg"]; !ok || e.Size != 2_000_000 {
		t.Errorf("deep file via MLSD: %+v", e)
	}
}

// TestAnonUploadConfirmation exercises the §VI.A RETR-refusal probe against
// a Pure-FTPd-style server holding an anonymously uploaded probe file.
func TestAnonUploadConfirmation(t *testing.T) {
	root := vfs.NewDir("/", vfs.Perm777)
	fs := vfs.New(root)
	// Seed an anonymously uploaded reference-set file, attributed the
	// way the server would attribute it.
	if _, err := fs.PutUpload("/w0000000t.txt", []byte("Anonymous"), vfs.Perm644, true, "ftp", true); err != nil {
		t.Fatal(err)
	}
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyPureFTPd1029), // approval-gated, no opt-out banner
		Driver:         fs,
		AllowAnonymous: true,
		AnonWritable:   true,
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if !rec.AnonymousOK {
		t.Fatalf("login failed: %+v", rec)
	}
	if len(rec.WriteEvidence) == 0 {
		t.Fatal("probe file not recorded as write evidence")
	}
	if !rec.AnonUploadConfirmed {
		t.Error("RETR refusal did not confirm anonymous upload")
	}
}

// TestAnonUploadNotConfirmedOnPlainServer: a server without the approval
// gate serves the file normally, so confirmation must stay false.
func TestAnonUploadNotConfirmedOnPlainServer(t *testing.T) {
	root := vfs.NewDir("/", vfs.Perm777)
	root.Add(vfs.NewFileContent("sjutd.txt", vfs.Perm644, []byte("test")))
	nw := buildNet(t, ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         vfs.New(root),
		AllowAnonymous: true,
	})
	rec := Enumerate(context.Background(), enumConfig(nw), srvIP.String())
	if len(rec.WriteEvidence) == 0 {
		t.Fatal("evidence missing")
	}
	if rec.AnonUploadConfirmed {
		t.Error("plain server wrongly confirmed anonymous upload")
	}
}
