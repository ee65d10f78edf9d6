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

// TestLedgerPrefixMatchesCheckpoint: a checkpoint is a position in its
// ledger. Every checkpoint a census writes — periodic ones while it runs,
// the truncation write when it is killed, and periodic ones while the
// resumed run appends to the same ledger — must count exactly the
// records of the ledger's first Streamed lines and carry exactly that
// prefix's robustness ledger: the kill is the run's result, not a record's,
// so no checkpoint counts it. Resuming from the truncation checkpoint, and
// from the last periodic checkpoint of each leg, must finish with the
// uninterrupted run's tables. Swept over seeds × worker counts.
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
	resCfg.Resume = &Resume{Checkpoint: decodeCheckpoint(t, caps[len(caps)-1].raw).Checkpoint, Ledger: bytes.NewReader(ledger.Bytes())}
	resCfg.StreamTo = dataset.NewWriterSink(&ledger)
	resCfg.Checkpoint = policy(true)
	c2, err := NewCensus(resCfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, _, ref := runReference(t, cfg)
	want := ref.ComputeTables()
	sameTables := func(what string, got Tables) {
		t.Helper()
		if !reflect.DeepEqual(got, want) || got.RenderFull() != want.RenderFull() {
			t.Errorf("%s: resumed tables diverge from the uninterrupted run's", what)
		}
	}
	sameTables("resumed from the truncation checkpoint", res2.ComputeTables())

	raw := ledger.Bytes()
	records, err := dataset.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	periodic := map[bool]int{}
	last := map[bool]*analysis.CheckpointState{}
	for i, c := range caps {
		snap := decodeCheckpoint(t, c.raw)
		cp := snap.Checkpoint
		if !cp.Truncated {
			periodic[c.resumed]++
			last[c.resumed] = cp
		}
		if cp.Streamed > len(records) || snap.Observed != cp.Streamed {
			t.Fatalf("checkpoint %d: %d observed, %d streamed, ledger holds %d", i, snap.Observed, cp.Streamed, len(records))
		}
		if wantRobust := ledgerRobustness(records[:cp.Streamed]); !reflect.DeepEqual(cp.Robustness, wantRobust) {
			t.Errorf("checkpoint %d (resumed=%v): robustness %+v, ledger prefix gives %+v", i, c.resumed, cp.Robustness, wantRobust)
		}
	}
	if periodic[false] == 0 || periodic[true] == 0 {
		t.Fatalf("periodic checkpoints: %d in the killed run, %d in the resumed run; want some in each", periodic[false], periodic[true])
	}

	// A crash after a periodic write: the ledger as that checkpoint
	// counted it, resumed and appended to.
	for _, resumed := range []bool{false, true} {
		cp := last[resumed]
		size, err := dataset.PrefixSize(bytes.NewReader(raw), cp.Streamed)
		if err != nil {
			t.Fatal(err)
		}
		crashCfg := cfg
		crashCfg.Resume = &Resume{Checkpoint: cp, Ledger: bytes.NewReader(raw[:size])}
		crashCfg.StreamTo = dataset.NewWriterSink(bytes.NewBuffer(append([]byte(nil), raw[:size]...)))
		c, err := NewCensus(crashCfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sameTables(fmt.Sprintf("resumed from the last periodic checkpoint (resumed leg=%v, %d records)", resumed, cp.Streamed), res.ComputeTables())
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

// BenchmarkResumeRefold times what a resume pays before its pipeline
// starts: reading the ledger prefix, folding it into the aggregator (with
// the HTTP join resolved against the world) and the robustness ledger, and
// checking both against the checkpoint. The ledger is a whole census at
// seed 42, scale 2048 (about 10.9k records).
func BenchmarkResumeRefold(b *testing.B) {
	var ledger bytes.Buffer
	c, err := NewCensus(CensusConfig{Seed: 42, Scale: 2048, StreamTo: dataset.NewWriterSink(&ledger)})
	if err != nil {
		b.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cp := &analysis.CheckpointState{Streamed: res.Observed, Robustness: res.Robustness, Cursors: []uint64{0}}
	raw := ledger.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Config.Resume = &Resume{Checkpoint: cp, Ledger: bytes.NewReader(raw)}
		if _, err := c.newFold(cp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.Observed), "ns/record")
	b.ReportMetric(float64(res.Observed), "records")
}
