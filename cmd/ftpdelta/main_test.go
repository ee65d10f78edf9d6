package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/delta"
)

// writeLedger writes records as a JSONL ledger in dir.
func writeLedger(t *testing.T, dir, name string, recs []*dataset.HostRecord) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := dataset.NewWriter(f)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func host(ip, banner string, anon bool) *dataset.HostRecord {
	return &dataset.HostRecord{IP: ip, PortOpen: true, FTP: true, Banner: banner, AnonymousOK: anon}
}

// TestRunTrendsTwoLedgers: ftpdelta reads two ledgers and prints the report
// CompareLedgers builds from their records: the aggregate trends and the
// host-level churn and migration tables.
func TestRunTrendsTwoLedgers(t *testing.T) {
	before := []*dataset.HostRecord{
		host("10.0.0.1", "220 (vsFTPd 2.3.5)", false),
		host("10.0.0.2", "220 ProFTPD 1.3.5 Server", true),
		host("10.0.0.3", "220 FTP server ready.", false),
	}
	after := []*dataset.HostRecord{
		host("10.0.0.1", "220 (vsFTPd 3.0.2)", false),
		host("10.0.0.2", "220 ProFTPD 1.3.5 Server", true),
		host("10.0.0.4", "220 Pure-FTPd 1.0.36 ready.", true),
	}
	dir := t.TempDir()
	from := writeLedger(t, dir, "e0.jsonl", before)
	to := writeLedger(t, dir, "e1.jsonl", after)

	var out strings.Builder
	if err := run([]string{"-from", from, "-to", to}, &out); err != nil {
		t.Fatal(err)
	}
	if want := delta.CompareLedgers(before, after).Render(); out.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), want)
	}
	for _, want := range []string{"Delta I", "Delta IV", "Delta V", "vsFTPd 2.3.5"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}

	for _, args := range [][]string{{"-from", from}, {"-to", to}, {"-from", from, "-to", filepath.Join(dir, "missing.jsonl")}} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
