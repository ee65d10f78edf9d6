package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/worldgen"
)

// TestConfigDigestPinned: the checkpoint config digest of the default
// census and of the identify funnel stays what earlier versions wrote, so
// their checkpoints keep resuming. A change to the digest's input string
// — a renamed, added or dropped knob — fails here before it strands a
// checkpoint on disk.
func TestConfigDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CensusConfig
		want uint64
	}{
		{"census", CensusConfig{Seed: 42, Scale: 262144}, 0xd6373cb486deed54},
		{"funnel", CensusConfig{Seed: 42, Scale: 262144, Identify: true, ServiceMix: worldgen.DefaultServiceMix()}, 0x769f9e4db7cb1a0d},
	} {
		c, err := NewCensus(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.configDigest(); got != tc.want {
			t.Errorf("%s: config digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// ledgerRobustness folds records into a robustness ledger field by field,
// independently of the census's own fold.
func ledgerRobustness(records []*dataset.HostRecord) analysis.RobustnessState {
	var r analysis.RobustnessState
	for _, rec := range records {
		r.Records++
		if rec.Partial {
			r.Partial++
		}
		if rec.ConnTerminated {
			r.Terminated++
		}
		if rec.ListingTruncated {
			r.Truncated++
		}
		r.SkippedDirs += rec.SkippedDirs
		r.Retries += rec.Retries
		r.DataBytes += rec.DataBytes
		if rec.FailureClass != "" {
			if r.Failures == nil {
				r.Failures = map[string]int{}
			}
			r.Failures[rec.FailureClass]++
		}
	}
	return r
}

// TestLedgerPrefixMatchesCheckpoint: a checkpoint's aggregate is its
// ledger prefix re-folded. Every checkpoint a census writes — periodic
// ones while it runs, the truncation write when it is killed, and periodic
// ones while the resumed run appends to the same ledger — must decode to an
// aggregate that finalizes to the tables of a fresh aggregator folding the
// ledger's first Streamed lines, and must carry exactly that prefix's
// robustness ledger: the kill is the run's result, not a record's, so no
// checkpoint counts it. Swept over seeds × worker counts.
func TestLedgerPrefixMatchesCheckpoint(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, mult := range workerScales {
			t.Run(fmt.Sprintf("seed%d/%dx-workers", seed, mult), func(t *testing.T) {
				checkLedgerPrefixCheckpoints(t, seed, mult)
			})
		}
	}
}

func checkLedgerPrefixCheckpoints(t *testing.T, seed uint64, mult int) {
	type capture struct {
		raw     []byte
		resumed bool
	}
	var caps []capture
	policy := func(resumed bool) *CheckpointPolicy {
		return &CheckpointPolicy{
			Every: 20 * time.Millisecond,
			Write: func(s *analysis.Snapshot) error {
				raw, err := s.EncodeBytes()
				if err != nil {
					return err
				}
				caps = append(caps, capture{raw, resumed})
				return nil
			},
		}
	}
	cfg := withWorkers(resumeConfig(seed, 65536, false), mult)
	// Pace the ~56k-address walk over about 0.3 s so the 20 ms ticker
	// fires in both legs.
	cfg.ScanRate = 200_000

	// First leg: killed after 60 records, checkpointing as it goes.
	var ledger bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCfg := cfg
	killCfg.StreamTo = &cancelAtSink{inner: dataset.NewWriterSink(&ledger), n: 60, cancel: cancel}
	killCfg.Checkpoint = policy(false)
	c, err := NewCensus(killCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || len(caps) == 0 || !decodeCheckpoint(t, caps[len(caps)-1].raw).Checkpoint.Truncated {
		t.Fatalf("the kill wrote no truncation checkpoint (truncated=%v, %d checkpoints)", res.Truncated, len(caps))
	}

	// Second leg: resume from the truncation checkpoint, appending to the
	// same ledger and checkpointing again.
	resCfg := cfg
	resCfg.StreamTo = dataset.NewWriterSink(&ledger)
	resCfg.Resume = decodeCheckpoint(t, caps[len(caps)-1].raw)
	resCfg.Checkpoint = policy(true)
	c2, err := NewCensus(resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	records, err := dataset.ReadAll(bytes.NewReader(ledger.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	world := c2.World
	tables := func(agg *analysis.Aggregator) Tables {
		return (&Result{agg: agg, scanned: world.ScanSize}).ComputeTables()
	}
	periodic := map[bool]int{}
	for i, c := range caps {
		snap := decodeCheckpoint(t, c.raw)
		cp := snap.Checkpoint
		if !cp.Truncated {
			periodic[c.resumed]++
		}
		if cp.Streamed > len(records) || snap.Observed != cp.Streamed {
			t.Fatalf("checkpoint %d: %d observed, %d streamed, ledger holds %d", i, snap.Observed, cp.Streamed, len(records))
		}
		prefix := records[:cp.Streamed]

		refold := analysis.NewAggregator(world.ASDB, truthHTTP(world))
		for _, rec := range prefix {
			if err := refold.Observe(rec); err != nil {
				t.Fatal(err)
			}
		}
		stored := analysis.NewAggregator(nil, nil)
		stored.MergeSnapshot(snap)
		got, want := tables(stored), tables(refold)
		if !reflect.DeepEqual(got, want) || got.RenderFull() != want.RenderFull() {
			t.Errorf("checkpoint %d (resumed=%v, %d records): stored aggregate does not finalize to its ledger prefix's tables", i, c.resumed, cp.Streamed)
		}

		if wantRobust := ledgerRobustness(prefix); !reflect.DeepEqual(cp.Robustness, wantRobust) {
			t.Errorf("checkpoint %d (resumed=%v): robustness %+v, ledger prefix gives %+v", i, c.resumed, cp.Robustness, wantRobust)
		}
	}
	if periodic[false] == 0 || periodic[true] == 0 {
		t.Errorf("periodic checkpoints: %d in the killed run, %d in the resumed run; want some in each", periodic[false], periodic[true])
	}
}

// decodeCheckpoint decodes one written checkpoint, as a resume reads it.
func decodeCheckpoint(t *testing.T, raw []byte) *analysis.Snapshot {
	t.Helper()
	snap, err := analysis.DecodeSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Checkpoint == nil {
		t.Fatal("checkpoint carries no checkpoint state")
	}
	return snap
}
