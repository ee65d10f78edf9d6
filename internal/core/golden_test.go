package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftpcloud/internal/analysis"
)

// TestCheckpointGoldenFiles: checkpoint and aggregate files written before
// the accumulators became their own serialized form still decode, and
// finalized read-only they render byte for byte the tables they rendered
// when they were written. A census runs one permutation walk, so
// resuming the 2-shard checkpoint is refused. The files are fixed bytes:
//
//   - checkpoint-2shards: a frame-version-2 truncation checkpoint of a
//     2-shard census (seed 11, scale 32768) killed after 400 records;
//   - aggregate-identify: a frame-version-1 aggregate of a census with
//     the identification stage and the default service mix (seed 42,
//     scale 4096), whose state holds FTPS certificates with device
//     models, writable ASes and unexpected services.
//
// Each .txt is the RenderFull text of its file, taken when it was written.
// A renamed accumulator field decodes as zero and fails here.
func TestCheckpointGoldenFiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		// scanned is the sweep size Table I divides by; a checkpoint
		// carries its own.
		scanned    uint64
		checkpoint bool
	}{
		{name: "checkpoint-2shards", checkpoint: true},
		{name: "aggregate-identify", scanned: 899598},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.name+".fcas"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := analysis.DecodeSnapshotBytes(raw)
			if err != nil {
				t.Fatal(err)
			}
			if (snap.Checkpoint != nil) != tc.checkpoint {
				t.Fatalf("checkpoint state present = %v, want %v", snap.Checkpoint != nil, tc.checkpoint)
			}
			scanned := tc.scanned
			if snap.Checkpoint != nil {
				scanned = snap.Checkpoint.ScanSize
			}
			if got := (&Result{agg: analysis.ReadOnly(snap), scanned: scanned}).ComputeTables().RenderFull(); got != string(want) {
				t.Errorf("rendered tables diverge from the ones written with the file:\n got:\n%s\nwant:\n%s", got, want)
			}
			if tc.checkpoint {
				cp := snap.Checkpoint
				c, err := NewCensus(CensusConfig{Seed: cp.Seed, Scale: cp.Scale, Epoch: cp.Epoch, Resume: &Resume{Checkpoint: cp}})
				if err != nil {
					t.Fatal(err)
				}
				_, err = c.Run(context.Background())
				if !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "2 shards") {
					t.Errorf("resuming the 2-shard checkpoint: got %v, want ErrCheckpointMismatch naming 2 shards", err)
				}
				return
			}
			// The aggregate must exercise the state it is kept for.
			devices := 0
			for _, cert := range snap.FTPS.ByFP {
				devices += len(cert.Devices)
			}
			if devices == 0 || len(snap.ASConcentration.Writable) == 0 || snap.Unexpected.Total == 0 {
				t.Errorf("aggregate lacks certificate devices (%d), writable ASes (%d) or unexpected services (%d)",
					devices, len(snap.ASConcentration.Writable), snap.Unexpected.Total)
			}
		})
	}
}
