package delta

import (
	"fmt"
	"testing"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
)

// syntheticLedger builds n FTP host records with a realistic software mix
// and a deterministic drift pattern, so ledger diffing benchmarks at the
// scale of a real sweep (~100k responsive hosts) without running one.
func syntheticLedger(n int, epoch int) []*dataset.HostRecord {
	banners := []string{
		"220 (vsFTPd 2.3.5)",
		"220 (vsFTPd 3.0.2)",
		"220 ProFTPD 1.3.5 Server ready",
		"220 Pure-FTPd 1.0.36 ready.",
		"220 FTP server ready.",
	}
	recs := make([]*dataset.HostRecord, 0, n)
	for i := 0; i < n; i++ {
		// ~3% of hosts churn per epoch: skip them in the later ledger
		// and give the survivors a shifted banner mix so flows are
		// non-trivial.
		if epoch > 0 && i%33 == 0 {
			continue
		}
		recs = append(recs, &dataset.HostRecord{
			IP:          fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255),
			PortOpen:    true,
			FTP:         true,
			Banner:      banners[(i+epoch*(i%7))%len(banners)],
			AnonymousOK: i%5 == 0,
		})
	}
	return recs
}

// checkpointSnapshot builds a populated v2 snapshot of benchmark size.
func checkpointSnapshot() *analysis.Snapshot {
	counts := make(map[string]*analysis.CategoryCount, 64)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("cat-%d", i)
		counts[name] = &analysis.CategoryCount{Name: name, All: i * 11, Anon: i * 3}
	}
	return &analysis.Snapshot{
		Observed:       100_000,
		Funnel:         analysis.FunnelAcc{Open: 120_000, FTP: 100_000, Anon: 21_000},
		Classification: analysis.ClassificationAcc{Counts: counts, TotalFTP: 100_000, TotalAnon: 21_000},
		Checkpoint: &analysis.CheckpointState{
			Seed:      42,
			Scale:     4096,
			Shards:    4,
			ScanSize:  1 << 20,
			Cursors:   []uint64{100, 200, 300, 400},
			Streamed:  100_000,
			Probed:    1 << 20,
			Responded: 120_000,
			Robustness: analysis.RobustnessState{
				Records:  100_000,
				Failures: map[string]int{"timeout": 120, "reset": 45},
			},
		},
	}
}

func BenchmarkCheckpointEncode(b *testing.B) {
	snap := checkpointSnapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := snap.EncodeBytes(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointDecode(b *testing.B) {
	raw, err := checkpointSnapshot().EncodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.DecodeSnapshotBytes(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffLedgers100k(b *testing.B) {
	before := syntheticLedger(100_000, 0)
	after := syntheticLedger(100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := DiffLedgers(before, after)
		if d.Persisted == 0 {
			b.Fatal("empty diff")
		}
	}
}
