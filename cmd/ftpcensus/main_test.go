package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/notify"
	"ftpcloud/internal/worldgen"
)

// TestRunRefusesBadUsage: flag values that cannot describe the census the
// caller meant are refused before any world is built, and leave no files.
func TestRunRefusesBadUsage(t *testing.T) {
	dir := t.TempDir()
	notices := filepath.Join(dir, "n.txt")
	checkpoint := filepath.Join(dir, "cp.bin")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "-scale 0 out of range"},
		{[]string{"-scale", "-8"}, "-scale -8 out of range"},
		{[]string{"-notify", notices}, "-notify needs -out"},
		{[]string{"-checkpoint", checkpoint}, "-checkpoint and -resume need -out"},
		{[]string{"-resume", checkpoint}, "-checkpoint and -resume need -out"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	for _, path := range []string{notices, checkpoint} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("a refused run left %s behind (stat: %v)", path, err)
		}
	}
}

// TestNotifyFromLedger: -notify writes exactly the notices built from the
// -out ledger the same run streamed.
func TestNotifyFromLedger(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "census.jsonl")
	notices := filepath.Join(dir, "notices.txt")
	if err := run([]string{"-seed", "42", "-scale", "65536", "-quiet", "-out", ledger, "-notify", notices}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(ledger)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := dataset.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	world, err := worldgen.New(worldgen.DefaultParams(42, 65536))
	if err != nil {
		t.Fatal(err)
	}
	want := notify.Build(records, world.ASDB)
	if len(want) == 0 {
		t.Fatal("ledger yields no notices — test is vacuous")
	}
	got, err := os.ReadFile(notices)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(got), "To: "); n != len(want) {
		t.Errorf("notice file holds %d notices, the ledger yields %d", n, len(want))
	}
	if !strings.HasPrefix(string(got), notify.Render(want[0])) {
		t.Error("notice file does not open with the ledger's first notice")
	}
}

// TestResumeTrimCountsLikeTheDecoder: a resume trims the ledger to the
// checkpoint's records counted as dataset.Read counts them, so blank lines
// and CRLF line ends neither cut the kept prefix short nor leave an extra
// record in it. A kept last record without its line end gets one, so the
// records appended after it stay on their own lines.
func TestResumeTrimCountsLikeTheDecoder(t *testing.T) {
	line := func(ip string) string {
		raw, err := dataset.AppendRecord(nil, &dataset.HostRecord{IP: ip, PortOpen: true})
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(string(raw), "\n")
	}
	a, b, c := line("10.0.0.1"), line("10.0.0.2"), line("10.0.0.3")
	for _, tc := range []struct {
		// resumed is the ledger after the trim and one appended record.
		name, ledger, resumed string
	}{
		{"blank line and CRLF", a + "\r\n\r\n" + b + "\r\n\n" + c + "\r\n", a + "\r\n\r\n" + b + "\r\n" + c + "\n"},
		{"leading blank lines", "\n\n" + a + "\n" + b + "\n" + c + "\n", "\n\n" + a + "\n" + b + "\n" + c + "\n"},
		{"no final line end", a + "\n" + b, a + "\n" + b + "\n" + c + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			if err := os.WriteFile(path, []byte(tc.ledger), 0o644); err != nil {
				t.Fatal(err)
			}
			prefix, app, err := openLedgerForResume(path, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer prefix.Close()
			records, err := dataset.ReadAll(prefix)
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != 2 || records[0].IP != "10.0.0.1" || records[1].IP != "10.0.0.2" {
				t.Errorf("the prefix re-folds to %d records, want the first 2", len(records))
			}
			if _, err := app.WriteString(c + "\n"); err != nil {
				t.Fatal(err)
			}
			if err := app.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.resumed {
				t.Errorf("resumed ledger:\n got %q\nwant %q", got, tc.resumed)
			}
		})
	}
	path := filepath.Join(t.TempDir(), "short.jsonl")
	if err := os.WriteFile(path, []byte(a+"\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openLedgerForResume(path, 2); err == nil || !strings.Contains(err.Error(), "wrong file?") {
		t.Errorf("a ledger holding 1 record resumed as 2: %v", err)
	}
}
