package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/obs"
)

// listingProbe is a StreamTo sink that inspects records as they flow by,
// without retaining them.
type listingProbe struct {
	records   int
	withFiles int
	closed    bool
}

func (p *listingProbe) Observe(rec *dataset.HostRecord) error {
	p.records++
	if len(rec.Files) > 0 {
		p.withFiles++
	}
	return nil
}

func (p *listingProbe) Close() error {
	p.closed = true
	return nil
}

// TestLedgerRefoldMatchesLive is the property the streaming census rests
// on: a census's JSONL ledger, read back and folded through a fresh
// aggregator with the same world-truth HTTP join, finalizes exactly the
// tables the live run folded — and the ledger itself does not depend on the
// worker counts. Swept over seeds × worker counts with a fixed clock, so
// ledgers compare byte for byte once sorted (completion order varies).
func TestLedgerRefoldMatchesLive(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		var ledgers [][]string
		for _, mult := range workerScales {
			var ledger bytes.Buffer
			c, err := NewCensus(withWorkers(CensusConfig{
				Seed:     seed,
				Scale:    32768,
				Now:      fixedClock,
				StreamTo: dataset.NewWriterSink(&ledger),
			}, mult))
			if err != nil {
				t.Fatal(err)
			}
			live, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			records, err := dataset.ReadAll(bytes.NewReader(ledger.Bytes()))
			if err != nil {
				t.Fatalf("seed %d, %dx workers: reading ledger: %v", seed, mult, err)
			}
			if len(records) != live.Observed {
				t.Errorf("seed %d, %dx workers: ledger holds %d records, run observed %d",
					seed, mult, len(records), live.Observed)
			}
			world := c.World
			agg := analysis.NewAggregator(world.ASDB, truthHTTP(world))
			for _, rec := range records {
				if err := agg.Observe(rec); err != nil {
					t.Fatal(err)
				}
			}
			refold := (&Result{agg: agg, scanned: world.ScanSize}).ComputeTables()
			want := live.ComputeTables()
			if !reflect.DeepEqual(refold, want) {
				t.Errorf("seed %d, %dx workers: re-folded tables are not deep-equal to the live tables", seed, mult)
			}
			if refold.Render() != want.Render() {
				t.Errorf("seed %d, %dx workers: re-folded render diverges from the live render", seed, mult)
			}
			ledgers = append(ledgers, sortedLines(t, ledger.Bytes()))
		}
		if !reflect.DeepEqual(ledgers[0], ledgers[1]) {
			t.Errorf("seed %d: the 4x-workers ledger differs from the default-workers ledger", seed)
		}
	}
}

// TestCensusStreamCounts: the stream sink sees every record exactly once
// and is closed exactly once, and the discovery counters in the registry
// agree with the result, at four times the default workers.
func TestCensusStreamCounts(t *testing.T) {
	sink := &cancelAfterSink{}
	reg := obs.NewRegistry()
	c, err := NewCensus(withWorkers(CensusConfig{
		Seed:     7,
		Scale:    131072,
		StreamTo: sink,
		Metrics:  reg,
	}, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed == 0 {
		t.Fatal("census observed no hosts")
	}
	if sink.seen != res.Observed {
		t.Errorf("stream saw %d records, result observed %d", sink.seen, res.Observed)
	}
	if sink.closes != 1 {
		t.Errorf("stream closed %d times, want exactly once", sink.closes)
	}
	if res.Observed != res.Robustness.Records {
		t.Errorf("observed %d != robustness records %d", res.Observed, res.Robustness.Records)
	}
	snap := reg.Snapshot()
	if observed := snap.Counters["census.observed"]; observed != uint64(res.Observed) {
		t.Errorf("census.observed %d, result observed %d", observed, res.Observed)
	}
	if probed := snap.Counters["zmap.probed"]; probed != res.Probed {
		t.Errorf("zmap.probed %d, result probed %d", probed, res.Probed)
	}
}

// TestStreamingRetainsNoListings proves the constant-memory claim's
// mechanism: listings flow through the sink chain (a probe sees them)
// but nothing in the Result pins them afterwards.
func TestStreamingRetainsNoListings(t *testing.T) {
	probe := &listingProbe{}
	c, err := NewCensus(CensusConfig{
		Seed: 7, Scale: 32768,
		StreamTo: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !probe.closed {
		t.Error("Run did not close the StreamTo sink")
	}
	if probe.records != res.Observed {
		t.Errorf("probe saw %d records, result observed %d", probe.records, res.Observed)
	}
	if probe.withFiles == 0 {
		t.Fatal("no record carried a file listing — world too small to exercise retention")
	}
	tables := res.ComputeTables()
	if tables.Exposure.ExposingServers == 0 {
		t.Error("exposure table empty despite listed files")
	}
	if tables.Exposure.ExposingServers > probe.withFiles {
		t.Errorf("exposing servers %d exceeds servers with listings %d",
			tables.Exposure.ExposingServers, probe.withFiles)
	}
}

// TestStreamToErrorSurfaced: a failing sink must abort the census and
// surface the error.
type failAfterSink struct {
	after int
	seen  int
}

func (s *failAfterSink) Observe(*dataset.HostRecord) error {
	s.seen++
	if s.seen > s.after {
		return errSinkBoom
	}
	return nil
}

func (s *failAfterSink) Close() error { return nil }

var errSinkBoom = &sinkBoomError{}

type sinkBoomError struct{}

func (*sinkBoomError) Error() string { return "sink boom" }

func TestStreamToErrorSurfaced(t *testing.T) {
	c, err := NewCensus(CensusConfig{
		Seed: 7, Scale: 32768,
		StreamTo: &failAfterSink{after: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("Run succeeded despite failing sink")
	}
}
