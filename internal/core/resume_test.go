package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/asdb"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/notify"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// cancelAtSink forwards records to an inner sink and cancels the run's
// context once n records have passed — a deterministic (record-counted)
// mid-run kill switch.
type cancelAtSink struct {
	inner  dataset.Sink
	n      int
	seen   int
	cancel context.CancelFunc
}

func (s *cancelAtSink) Observe(rec *dataset.HostRecord) error {
	if err := s.inner.Observe(rec); err != nil {
		return err
	}
	s.seen++
	if s.seen == s.n {
		s.cancel()
	}
	return nil
}

func (s *cancelAtSink) Close() error { return s.inner.Close() }

// sortedLines splits a JSONL buffer into sorted lines. Record completion
// order is nondeterministic even uninterrupted (workers race), so ledgers
// compare as sets; byte-identity means identical sorted lines.
func sortedLines(t *testing.T, raw []byte) []string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// resumeConfig builds the shared census configuration for the equivalence
// tests: streaming mode, small world, optional hostility.
func resumeConfig(seed uint64, scale int, hostile bool) CensusConfig {
	// A fixed clock keeps ScannedAt identical across runs — JSONL
	// byte-identity is part of the equivalence contract.
	cfg := CensusConfig{
		Seed:  seed,
		Scale: scale,
		Now:   fixedClock,
	}
	if hostile {
		cfg.HostileRate = 0.2
	}
	return cfg
}

// workerScales are the concurrency settings the invariance tests sweep:
// each stage at its default worker count, and at four times it.
var workerScales = []int{1, 4}

// withWorkers sets the scanner, enumerator and identification worker
// counts to mult times their defaults (64, 32 and 32); mult 1 keeps the
// defaults.
func withWorkers(cfg CensusConfig, mult int) CensusConfig {
	if mult > 1 {
		cfg.ScanWorkers = mult * 64
		cfg.EnumWorkers = mult * 32
		cfg.IdentifyWorkers = mult * 32
	}
	return cfg
}

// runReference runs the census uninterrupted and returns its rendered
// tables, sorted ledger, and result.
func runReference(t *testing.T, cfg CensusConfig) (string, []string, *Result) {
	t.Helper()
	var ledger bytes.Buffer
	cfg.StreamTo = dataset.NewWriterSink(&ledger)
	c, err := NewCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.ComputeTables().Render(), sortedLines(t, ledger.Bytes()), res
}

// TestKillAndResumeEquivalence: a census killed mid-run and resumed from
// its truncation checkpoint produces tables and JSONL byte-identical to the
// same census run uninterrupted — benign and hostile worlds, at the default
// worker counts and at four times them.
func TestKillAndResumeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hostile bool
		workers int
	}{
		{"benign/1x-workers", false, 1},
		{"benign/4x-workers", false, 4},
		{"hostile/1x-workers", true, 1},
		{"hostile/4x-workers", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := withWorkers(resumeConfig(11, 32768, tc.hostile), tc.workers)
			wantRender, wantLedger, wantRes := runReference(t, cfg)

			// First leg: same census, killed after 5 records reach the
			// ledger. The cancellation cuts the hosts in flight, and the
			// checkpoint policy writes a truncation checkpoint that lists
			// them.
			var checkpoint *analysis.Snapshot
			var ledger bytes.Buffer
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			killCfg := cfg
			// Throttle the walk so the kill lands mid-scan even when the
			// race detector slows enumeration to a crawl: at 100k probes/s
			// the ~112k-address walk takes >1s, while the 5th record (from
			// hosts near the walk's start) arrives within tens of ms. Rate
			// only paces the scan, so the result is still comparable to
			// the unthrottled reference.
			killCfg.ScanRate = 100_000
			killCfg.StreamTo = &cancelAtSink{inner: dataset.NewWriterSink(&ledger), n: 5, cancel: cancel}
			killCfg.Checkpoint = &CheckpointPolicy{
				Write: func(s *analysis.Snapshot) error {
					checkpoint = s
					return nil
				},
			}
			c, err := NewCensus(killCfg)
			if err != nil {
				t.Fatal(err)
			}
			res1, err := c.Run(ctx)
			if err != nil {
				t.Fatalf("killed run returned error: %v", err)
			}
			if !res1.Truncated {
				t.Fatal("killed run not flagged truncated")
			}
			if checkpoint == nil {
				t.Fatal("truncation wrote no checkpoint")
			}
			cp := checkpoint.Checkpoint
			if cp == nil {
				t.Fatal("checkpoint snapshot carries no checkpoint state")
			}
			if !cp.Truncated {
				t.Error("checkpoint not marked as written on truncation")
			}
			if cp.Shards != 1 || len(cp.Cursors) != 1 {
				t.Fatalf("checkpoint has %d shards and %d cursors, want 1 and 1", cp.Shards, len(cp.Cursors))
			}
			// The checkpoint is taken once the pipeline has returned: the
			// ledger holds exactly the records the checkpoint counts, no
			// truncation needed before appending.
			if got := len(sortedLines(t, ledger.Bytes())); got != cp.Streamed {
				t.Fatalf("ledger holds %d records, checkpoint says %d", got, cp.Streamed)
			}
			if res1.Observed >= wantRes.Observed {
				t.Fatalf("kill was not mid-run: %d of %d records already observed", res1.Observed, wantRes.Observed)
			}

			// The checkpoint survives serialization (what the CLI does).
			raw, err := checkpoint.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := analysis.DecodeSnapshotBytes(raw)
			if err != nil {
				t.Fatal(err)
			}

			// Second leg: resume, re-folding and appending to the same
			// ledger.
			resCfg := cfg
			resCfg.Resume = &Resume{Checkpoint: decoded.Checkpoint, Ledger: bytes.NewReader(ledger.Bytes())}
			resCfg.StreamTo = dataset.NewWriterSink(&ledger)
			c2, err := NewCensus(resCfg)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := c2.Run(context.Background())
			if err != nil {
				t.Fatalf("resumed run returned error: %v", err)
			}
			if res2.Truncated {
				t.Error("resumed run flagged truncated")
			}

			if got := res2.ComputeTables().Render(); got != wantRender {
				t.Errorf("resumed tables diverge from uninterrupted run:\n got:\n%s\nwant:\n%s", got, wantRender)
			}
			gotLedger := sortedLines(t, ledger.Bytes())
			if len(gotLedger) != len(wantLedger) {
				t.Fatalf("concatenated ledger holds %d records, want %d", len(gotLedger), len(wantLedger))
			}
			for i := range wantLedger {
				if gotLedger[i] != wantLedger[i] {
					t.Fatalf("ledger line %d diverges:\n got %s\nwant %s", i, gotLedger[i], wantLedger[i])
				}
			}
			if res2.Observed != wantRes.Observed {
				t.Errorf("Observed %d, want %d", res2.Observed, wantRes.Observed)
			}
			if res2.Probed != wantRes.Probed {
				t.Errorf("Probed %d, want %d — halves must cover the space exactly once", res2.Probed, wantRes.Probed)
			}
			if res2.Responded != wantRes.Responded {
				t.Errorf("Responded %d, want %d", res2.Responded, wantRes.Responded)
			}
			if !reflect.DeepEqual(res2.Robustness, wantRes.Robustness) {
				t.Errorf("Robustness %+v, want %+v — the kill must not outlive the resume", res2.Robustness, wantRes.Robustness)
			}
		})
	}
}

// TestKillAndResumeCutsHostsInFlight: a kill stops a hostile census at
// once instead of waiting for its slow hosts. The truncation checkpoint is
// a cut that lists the hosts the kill caught in flight, the run reports how
// long it took to stop, and resuming from the checkpoint gives the
// uninterrupted run's full report, sorted ledger and robustness counters —
// at the default worker counts and at four times them.
func TestKillAndResumeCutsHostsInFlight(t *testing.T) {
	for _, mult := range workerScales {
		t.Run(fmt.Sprintf("%dx-workers", mult), func(t *testing.T) {
			cfg := withWorkers(resumeConfig(5, 32768, true), mult)
			var ref bytes.Buffer
			refCfg := cfg
			refCfg.StreamTo = dataset.NewWriterSink(&ref)
			refCensus, err := NewCensus(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refCensus.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			wantReport, wantLedger := want.ComputeTables().RenderFull(), sortedLines(t, ref.Bytes())

			// Kill a third of the way through the records, with the walk
			// paced so the kill lands mid-scan (see
			// TestKillAndResumeEquivalence).
			ledger := &syncBuffer{}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reg := obs.NewRegistry()
			killCfg := cfg
			killCfg.ScanRate = 100_000
			killCfg.Metrics = reg
			killCfg.StreamTo = &cancelAtSink{inner: dataset.NewWriterSink(ledger), n: want.Observed / 3, cancel: cancel}
			var takeCuts func() []capturedCut
			killCfg.Checkpoint, takeCuts = capturePolicy(t, 0, ledger, nil)
			c, err := NewCensus(killCfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(ctx)
			if err != nil || !res.Truncated {
				t.Fatalf("kill leg: err=%v truncated=%v", err, res != nil && res.Truncated)
			}
			cuts := takeCuts()
			if len(cuts) != 1 || !cuts[0].cp.Truncated {
				t.Fatalf("kill leg wrote %d checkpoints, want one truncation checkpoint", len(cuts))
			}
			cp := cuts[0].cp
			if len(cp.Pending) == 0 {
				t.Fatalf("truncation checkpoint lists no pending host (%d responded, %d streamed): the kill waited for the hosts in flight", cp.Responded, cp.Streamed)
			}
			if uint64(len(cp.Pending)) != cp.Responded-uint64(cp.Streamed) {
				t.Errorf("%d pending hosts, but %d responded and %d streamed", len(cp.Pending), cp.Responded, cp.Streamed)
			}
			// A hostile host can stall an operation for the whole 15 s
			// enumeration timeout; a cut host is not waited for.
			shutdown := reg.Snapshot().Histograms["census.shutdown"]
			if shutdown.Count != 1 {
				t.Errorf("census.shutdown holds %d samples, want 1", shutdown.Count)
			} else if d := time.Duration(shutdown.SumNanos); d > 5*time.Second {
				t.Errorf("the killed run took %v to stop", d)
			}

			report, lines, got := resumeFrom(t, cfg, cuts[0])
			if report != wantReport {
				t.Error("resumed report diverges from the uninterrupted run")
			}
			if !slices.Equal(lines, wantLedger) {
				t.Errorf("resumed ledger of %d records, want the uninterrupted %d", len(lines), len(wantLedger))
			}
			if !reflect.DeepEqual(got.Robustness, want.Robustness) {
				t.Errorf("resumed robustness %+v, want %+v", got.Robustness, want.Robustness)
			}
		})
	}
}

// TestKillAndResumeNotices: disclosure notices built from the ledger of a
// killed-and-resumed census equal those of an uninterrupted run. The
// resumed process only ever sees the hosts after the cut; the ledger it
// appends to holds the rest, so notices must come from the ledger.
func TestKillAndResumeNotices(t *testing.T) {
	cfg := resumeConfig(11, 32768, false)
	_, wantLedger, wantRes := runReference(t, cfg)

	// Kill a third of the way in, then resume into the same ledger.
	var checkpoint *analysis.Snapshot
	var ledger bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCfg := cfg
	killCfg.ScanRate = 100_000 // keep the kill mid-scan (see TestKillAndResumeEquivalence)
	killCfg.StreamTo = &cancelAtSink{inner: dataset.NewWriterSink(&ledger), n: wantRes.Observed / 3, cancel: cancel}
	killCfg.Checkpoint = &CheckpointPolicy{Write: func(s *analysis.Snapshot) error {
		checkpoint = s
		return nil
	}}
	killed, err := NewCensus(killCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := killed.Run(ctx); err != nil || !res.Truncated || checkpoint == nil {
		t.Fatalf("kill leg: err=%v, checkpoint written=%v", err, checkpoint != nil)
	}
	resCfg := cfg
	resCfg.Resume = &Resume{Checkpoint: checkpoint.Checkpoint, Ledger: bytes.NewReader(ledger.Bytes())}
	resCfg.StreamTo = dataset.NewWriterSink(&ledger)
	resumed, err := NewCensus(resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	db := resumed.World.ASDB
	want := ledgerNotices(t, []byte(strings.Join(wantLedger, "\n")), db)
	if len(want) == 0 {
		t.Fatal("uninterrupted census produced no notices — test is vacuous")
	}
	if got := ledgerNotices(t, ledger.Bytes(), db); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed ledger yields %d notices, uninterrupted run %d", len(got), len(want))
	}
}

// ledgerNotices reads a JSONL ledger back and builds its disclosure notices
// against db.
func ledgerNotices(t *testing.T, raw []byte, db *asdb.DB) []notify.Notice {
	t.Helper()
	records, err := dataset.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return notify.Build(records, db)
}

// TestResumeValidation: a checkpoint from a different world or pipeline
// shape, or with a pending list that does not account for the responsive
// hosts its ledger lacks, is refused with ErrCheckpointMismatch, never
// silently continued.
func TestResumeValidation(t *testing.T) {
	cfg := resumeConfig(31, 262144, false)

	// Produce a real checkpoint by killing a run immediately.
	var checkpoint *analysis.Snapshot
	var ledger bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCfg := cfg
	killCfg.StreamTo = &cancelAtSink{inner: dataset.NewWriterSink(&ledger), n: 1, cancel: cancel}
	killCfg.Checkpoint = &CheckpointPolicy{Write: func(s *analysis.Snapshot) error {
		checkpoint = s
		return nil
	}}
	c, err := NewCensus(killCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if checkpoint == nil {
		t.Fatal("no checkpoint written")
	}

	// A host of the scan range: the one the ledger's record names.
	recs, err := dataset.ReadAll(bytes.NewReader(ledger.Bytes()))
	if err != nil || len(recs) == 0 {
		t.Fatalf("kill leg ledger: %d records, %v", len(recs), err)
	}
	inRange := simnet.MustParseIP(recs[0].IP)

	run := func(mutate func(*CensusConfig, *Resume)) error {
		resCfg := cfg
		cp := *checkpoint.Checkpoint
		resCfg.Resume = &Resume{Checkpoint: &cp, Ledger: bytes.NewReader(ledger.Bytes())}
		mutate(&resCfg, resCfg.Resume)
		c, err := NewCensus(resCfg)
		if err != nil {
			return err
		}
		_, err = c.Run(context.Background())
		return err
	}

	cases := map[string]func() error{
		"different seed": func() error {
			return run(func(c *CensusConfig, _ *Resume) { c.Seed = 99 })
		},
		"different epoch": func() error {
			return run(func(c *CensusConfig, _ *Resume) { c.Epoch = 2 })
		},
		"different shards": func() error {
			return run(func(_ *CensusConfig, r *Resume) {
				r.Checkpoint.Shards = 4
				r.Checkpoint.Cursors = []uint64{0, 0, 0, 0}
			})
		},
		"different measurement knobs": func() error {
			return run(func(c *CensusConfig, _ *Resume) { c.Retries = 3 })
		},
		"no checkpoint state": func() error {
			return run(func(_ *CensusConfig, r *Resume) { r.Checkpoint = nil })
		},
		// A pending list must name each responsive host missing from the
		// ledger once, inside the scan range.
		"pending host outside the scan range": func() error {
			return run(func(_ *CensusConfig, r *Resume) {
				r.Checkpoint.Pending = []simnet.IP{ScannerBase}
				r.Checkpoint.Responded++
			})
		},
		"pending host listed twice": func() error {
			return run(func(_ *CensusConfig, r *Resume) {
				r.Checkpoint.Pending = []simnet.IP{inRange, inRange}
				r.Checkpoint.Responded += 2
			})
		},
		"more pending hosts than responded minus streamed": func() error {
			return run(func(_ *CensusConfig, r *Resume) { r.Checkpoint.Pending = []simnet.IP{inRange} })
		},
		"fewer pending hosts than responded minus streamed": func() error {
			return run(func(_ *CensusConfig, r *Resume) { r.Checkpoint.Responded++ })
		},
	}
	for name, f := range cases {
		if err := f(); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: got %v, want ErrCheckpointMismatch", name, err)
		}
	}

	// The untouched checkpoint must still be accepted, and at other worker
	// counts: parallelism is not part of what a census measures.
	for _, mult := range workerScales {
		if err := run(func(c *CensusConfig, _ *Resume) { *c = withWorkers(*c, mult) }); err != nil {
			t.Errorf("valid checkpoint refused at %dx workers: %v", mult, err)
		}
	}
}

// TestResumeRefusesWrongLedger: a resume re-folds the ledger it is handed,
// so a ledger that is not the checkpoint's prefix is refused with
// ErrCheckpointMismatch before any record flows: one cut short, one
// running past the checkpoint, and one holding the right number of
// another seed's records, which re-fold to other robustness counters.
func TestResumeRefusesWrongLedger(t *testing.T) {
	cfg := resumeConfig(11, 32768, false)
	var checkpoint *analysis.Snapshot
	var ledger bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCfg := cfg
	killCfg.ScanRate = 100_000 // keep the kill mid-scan (see TestKillAndResumeEquivalence)
	killCfg.StreamTo = &cancelAtSink{inner: dataset.NewWriterSink(&ledger), n: 30, cancel: cancel}
	killCfg.Checkpoint = &CheckpointPolicy{Write: func(s *analysis.Snapshot) error {
		checkpoint = s
		return nil
	}}
	c, err := NewCensus(killCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Run(ctx); err != nil || !res.Truncated || checkpoint == nil {
		t.Fatalf("kill leg: err=%v, checkpoint written=%v", err, checkpoint != nil)
	}
	cp := checkpoint.Checkpoint
	own := sortedLines(t, ledger.Bytes())
	if len(own) != cp.Streamed {
		t.Fatalf("ledger holds %d records, checkpoint %d", len(own), cp.Streamed)
	}
	_, fullLedger, _ := runReference(t, cfg)
	_, otherLedger, _ := runReference(t, resumeConfig(12, 32768, false))
	other := otherLedger[:cp.Streamed]
	otherRecords, err := dataset.ReadAll(strings.NewReader(strings.Join(other, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ledgerRobustness(otherRecords), cp.Robustness) {
		t.Fatal("the other seed's records re-fold to the checkpoint's robustness; test is vacuous")
	}

	resume := func(lines []string) error {
		resCfg := cfg
		resCfg.Resume = &Resume{Checkpoint: cp, Ledger: strings.NewReader(strings.Join(lines, "\n"))}
		c, err := NewCensus(resCfg)
		if err != nil {
			return err
		}
		_, err = c.Run(context.Background())
		return err
	}
	for name, lines := range map[string][]string{
		"short":      own[:len(own)-1],
		"long":       fullLedger,
		"other seed": other,
	} {
		if err := resume(lines); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s ledger: got %v, want ErrCheckpointMismatch", name, err)
		}
	}
	if err := resume(own); err != nil {
		t.Errorf("the checkpoint's own ledger refused: %v", err)
	}
}

// TestCheckpointNeedsLedger: a checkpoint is a position in the StreamTo
// ledger, so a checkpoint policy without one is refused up front.
func TestCheckpointNeedsLedger(t *testing.T) {
	_, err := NewCensus(CensusConfig{Seed: 1, Scale: 262144, Checkpoint: &CheckpointPolicy{
		Write: func(*analysis.Snapshot) error { return nil },
	}})
	if err == nil || !strings.Contains(err.Error(), "StreamTo") {
		t.Errorf("NewCensus with a checkpoint policy and no StreamTo: got %v, want an error naming StreamTo", err)
	}
}
