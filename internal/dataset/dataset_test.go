package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleRecord() *HostRecord {
	return &HostRecord{
		IP:          "10.1.2.3",
		ScannedAt:   time.Date(2015, 6, 18, 0, 0, 0, 0, time.UTC),
		PortOpen:    true,
		FTP:         true,
		Banner:      "220 ProFTPD 1.3.5 Server",
		AnonymousOK: true,
		Feat:        []string{"UTF8", "AUTH TLS"},
		Files: []FileEntry{
			{Path: "/pub", Name: "pub", IsDir: true, Read: ReadYes},
			{Path: "/pub/x.txt", Name: "x.txt", Size: 42, Read: ReadYes, Owner: "ftp"},
		},
		PortCheck:     PortNotValidated,
		FTPS:          &FTPSInfo{Supported: true, Cert: &CertInfo{FingerprintSHA256: "abcd", CommonName: "*.home.pl"}},
		WriteEvidence: []string{"w0000000t.txt"},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Write(sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records", len(recs))
	}
	r := recs[0]
	if r.IP != "10.1.2.3" || !r.FTP || len(r.Files) != 2 {
		t.Errorf("round trip lost data: %+v", r)
	}
	if r.Files[1].Size != 42 || r.Files[1].Read != ReadYes {
		t.Errorf("file entry: %+v", r.Files[1])
	}
	if r.FTPSCert() == nil || r.FTPSCert().CommonName != "*.home.pl" {
		t.Errorf("cert: %+v", r.FTPSCert())
	}
}

func TestReadAllSkipsBlankLines(t *testing.T) {
	input := `{"ip":"1.2.3.4","port_open":true,"ftp":false,"anonymous_ok":false}` + "\n\n" +
		`{"ip":"5.6.7.8","port_open":true,"ftp":true,"anonymous_ok":true}` + "\n"
	recs, err := ReadAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].IP != "5.6.7.8" {
		t.Errorf("got %+v", recs)
	}
}

func TestReadAllBadJSON(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("{not json}\n")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestOmitEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(&HostRecord{IP: "1.1.1.1", PortOpen: true}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	line := buf.String()
	// "ftps" is in this list because FTPS is a pointer precisely so that
	// hosts without TLS observations serialize without an empty object.
	for _, absent := range []string{"banner", "files", "robots", "write_evidence", "error", "ftps"} {
		if strings.Contains(line, `"`+absent+`"`) {
			t.Errorf("empty field %q serialized: %s", absent, line)
		}
	}
}

// TestReadAllLongLine: one host's listing can run past any fixed line cap
// (the enumerator's byte budget is 64 MiB of listing data), so a record the
// Writer wrote must read back whatever its length.
func TestReadAllLongLine(t *testing.T) {
	huge := &HostRecord{IP: "10.0.0.1", FTP: true, AnonymousOK: true}
	name := strings.Repeat("n", 200)
	for len(huge.Files)*2*len(name) < 17<<20 {
		huge.Files = append(huge.Files, FileEntry{Path: "/pub/" + name, Name: name, Size: int64(len(huge.Files))})
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range []*HostRecord{sampleRecord(), huge, sampleRecord()} {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 16<<20 {
		t.Fatalf("ledger is only %d bytes", buf.Len())
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || !reflect.DeepEqual(recs[1], huge) || recs[2].IP != "10.1.2.3" {
		t.Fatalf("read %d records; the long one round-tripped: %v", len(recs), len(recs) > 1 && reflect.DeepEqual(recs[1], huge))
	}
}
