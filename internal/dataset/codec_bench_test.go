package dataset

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// censusLedger returns n deterministic records shaped like a census ledger:
// mostly FTP hosts with banner, SYST, FEAT and HELP (whose "=>" and newlines
// take the escaping paths), a quarter of them anonymous with a listing that
// is usually short and now and then runs to thousands of entries, some FTPS
// certificates, and one host in eight a classified failure.
func censusLedger(n int) []*HostRecord {
	rng := rand.New(rand.NewSource(42))
	scanned := time.Date(2015, 6, 18, 12, 0, 0, 0, time.UTC)
	banners := []string{
		"ProFTPD 1.3.3c Server (ProFTPD Default Installation) [%s]",
		"(vsFTPd 2.3.4)",
		"---------- Welcome to Pure-FTPd [privsep] [TLS] ----------\nYou are user number 1 of 50 allowed.\nLocal time is now 12:00. Server port: 21.",
		"Microsoft FTP Service",
		"%s FTP server (Version wu-2.6.2-5) ready.",
	}
	feat := []string{"MDTM", "REST STREAM", "SIZE", "UTF8", "EPSV", "PASV", "AUTH TLS", "PBSZ", "PROT"}
	const help = "The following commands are recognized (* =>'s unimplemented):\n" +
		"USER PASS QUIT PORT PASV TYPE MODE STRU RETR STOR DELE MKD RMD\nPWD CWD CDUP LIST NLST SYST STAT HELP NOOP FEAT SIZE MDTM"
	out := make([]*HostRecord, n)
	for i := range out {
		ip := fmt.Sprintf("%d.%d.%d.%d", 1+rng.Intn(223), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
		rec := &HostRecord{
			IP:        ip,
			ScannedAt: scanned.Add(time.Duration(i) * 1733 * time.Microsecond),
			PortOpen:  true,
			PortCheck: PortNotTested,
		}
		out[i] = rec
		if rng.Intn(8) == 0 {
			rec.FailureClass = "protocol"
			rec.Error = `banner: ftp: protocol violation: bad reply code in "SSH-2.0-OpenSSH_5.3"`
			continue
		}
		rec.FTP = true
		if b := banners[rng.Intn(len(banners))]; strings.Contains(b, "%s") {
			rec.Banner, rec.BannerIP = fmt.Sprintf(b, ip), ip
		} else {
			rec.Banner = b
		}
		rec.Syst = "UNIX Type: L8"
		if rng.Intn(10) < 7 {
			rec.Feat = feat[:6+rng.Intn(4)]
		}
		if rng.Intn(10) < 8 {
			rec.Help = help
		}
		rec.RequestsUsed = 4 + rng.Intn(6)
		rec.AnonymousOK = rng.Intn(4) == 0
		if !rec.AnonymousOK {
			rec.LoginReply = "Anonymous access denied."
		} else {
			rec.LoginReply = "Password required for anonymous"
			entries := 1 + rng.Intn(20)
			if rng.Intn(50) == 0 {
				entries = 200 + rng.Intn(2000)
			}
			for j := 0; j < entries; j++ {
				dir := fmt.Sprintf("/pub/dir%02d", j%7)
				name := fmt.Sprintf("file%04d.tar.gz", j)
				rec.Files = append(rec.Files, FileEntry{
					Path: dir + "/" + name, Name: name, Size: int64(rng.Intn(1 << 22)),
					Read: ReadYes, Write: ReadNo, Owner: "ftp",
					ModTime: time.Date(2010+rng.Intn(6), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
				})
			}
			rec.DataBytes = int64(entries * 70)
		}
		if rng.Intn(5) == 0 {
			f := rec.EnsureFTPS()
			f.Supported = true
			f.Cert = &CertInfo{FingerprintSHA256: fmt.Sprintf("%064x", rng.Uint64()), CommonName: "*.home.pl", SelfSigned: rng.Intn(2) == 0}
		}
	}
	return out
}

const benchLedgerRecords = 2000

func encodeLedger(b *testing.B, recs []*HostRecord) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadAll decodes one census-shaped ledger per op.
func BenchmarkReadAll(b *testing.B) {
	raw := encodeLedger(b, censusLedger(benchLedgerRecords))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := ReadAll(bytes.NewReader(raw))
		if err != nil || len(recs) != benchLedgerRecords {
			b.Fatalf("read %d records: %v", len(recs), err)
		}
	}
}

// BenchmarkWriterWrite encodes one census-shaped ledger per op.
func BenchmarkWriterWrite(b *testing.B) {
	recs := censusLedger(benchLedgerRecords)
	b.SetBytes(int64(len(encodeLedger(b, recs))))
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
