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
	notices := filepath.Join(t.TempDir(), "n.txt")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "-scale 0 out of range"},
		{[]string{"-scale", "-8"}, "-scale -8 out of range"},
		{[]string{"-notify", notices}, "-notify needs -out"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	if _, err := os.Stat(notices); !os.IsNotExist(err) {
		t.Errorf("a refused run left %s behind (stat: %v)", notices, err)
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
