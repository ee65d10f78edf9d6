package analysis_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/asdb"
	"ftpcloud/internal/core"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/simnet"
)

// foldLedger is one census epoch's records plus the join sources a re-fold
// needs, generated once per test binary. The HTTP join is precomputed into a
// map, as a ledger reader holds it, so the fold is not charged for world
// generation.
type foldLedger struct {
	records []*dataset.HostRecord
	asdb    *asdb.DB
	join    map[string]analysis.HTTPInfo
}

var (
	ledgerOnce sync.Once
	ledger     foldLedger
	ledgerErr  error
)

// censusLedger runs a seed-42, scale-8192 census (about 2,700 records) and
// keeps every record it streamed.
func censusLedger(b *testing.B) foldLedger {
	ledgerOnce.Do(func() {
		var coll dataset.Collector
		c, err := core.NewCensus(core.CensusConfig{
			Seed:     42,
			Scale:    8192,
			StreamTo: &coll,
			Now:      func() time.Time { return time.Unix(1433116800, 0).UTC() },
		})
		if err != nil {
			ledgerErr = err
			return
		}
		if _, err := c.Run(context.Background()); err != nil {
			ledgerErr = err
			return
		}
		join := map[string]analysis.HTTPInfo{}
		for _, rec := range coll.Records {
			ip, err := simnet.ParseIP(rec.IP)
			if err != nil {
				continue
			}
			if t, ok := c.World.Truth(ip); ok && t.FTP {
				join[rec.IP] = analysis.HTTPInfo{HTTP: t.HTTP, Scripting: t.Scripting}
			}
		}
		ledger = foldLedger{records: coll.Records, asdb: c.World.ASDB, join: join}
	})
	if ledgerErr != nil {
		b.Fatal(ledgerErr)
	}
	return ledger
}

// BenchmarkAggregatorObserve prices the analysis fold a ledger re-fold pays:
// one op folds every record of a generated census ledger through a fresh
// Aggregator (classification, CVE and campaign matching, AS resolution,
// HTTP join). allocs/record is the per-record allocation count.
func BenchmarkAggregatorObserve(b *testing.B) {
	l := censusLedger(b)
	join := func(r *analysis.Record) (analysis.HTTPInfo, bool) {
		info, ok := l.join[r.Host.IP]
		return info, ok
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := analysis.NewAggregator(l.asdb, join)
		for _, rec := range l.records {
			if err := agg.Observe(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(len(l.records))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
}
