package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/dataset"
)

// runWorkers runs a census of cfg at mult times the default worker counts,
// streaming to a fresh JSONL buffer, and returns the result and the sorted
// ledger.
func runWorkers(t *testing.T, cfg CensusConfig, mult int) (*Result, []string) {
	t.Helper()
	var ledger bytes.Buffer
	cfg.StreamTo = dataset.NewWriterSink(&ledger)
	c, err := NewCensus(withWorkers(cfg, mult))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("%dx-workers run: %v", mult, err)
	}
	return res, sortedLines(t, ledger.Bytes())
}

// TestWorkerCountsMatchDefault: the worker counts are throughput knobs only
// — a census at 2, 4 and 8 times the default workers renders byte-identical
// tables, identical robustness and discovery counters, and the same ledger
// (sorted) as the default-workers run.
func TestWorkerCountsMatchDefault(t *testing.T) {
	cfg := CensusConfig{Seed: 7, Scale: 32768, Now: fixedClock}
	base, wantLedger := runWorkers(t, cfg, 1)
	want := base.ComputeTables().Render()

	for _, mult := range []int{2, 4, 8} {
		res, ledger := runWorkers(t, cfg, mult)
		if got := res.ComputeTables().Render(); got != want {
			t.Errorf("%dx workers: rendered tables diverge from the default-workers run (%d vs %d bytes)",
				mult, len(got), len(want))
		}
		if !reflect.DeepEqual(res.Robustness, base.Robustness) {
			t.Errorf("%dx workers: robustness diverges:\n got %+v\nwant %+v",
				mult, res.Robustness, base.Robustness)
		}
		if res.Observed != base.Observed {
			t.Errorf("%dx workers: observed %d, want %d", mult, res.Observed, base.Observed)
		}
		if res.Probed != base.Probed {
			t.Errorf("%dx workers: probed %d, want %d — the probe workers must cover the sweep exactly",
				mult, res.Probed, base.Probed)
		}
		if res.Responded != base.Responded {
			t.Errorf("%dx workers: responded %d, want %d", mult, res.Responded, base.Responded)
		}
		if !reflect.DeepEqual(ledger, wantLedger) {
			t.Errorf("%dx workers: ledger diverges from the default-workers ledger (%d vs %d records)",
				mult, len(ledger), len(wantLedger))
		}
	}
}

// TestWorkerCountsSeedVariation: the invariance holds across seeds, not
// just the shared test world.
func TestWorkerCountsSeedVariation(t *testing.T) {
	for _, seed := range []uint64{1, 99} {
		cfg := CensusConfig{Seed: seed, Scale: 65536, Now: fixedClock}
		base, _ := runWorkers(t, cfg, 1)
		res, _ := runWorkers(t, cfg, 3)
		if base.ComputeTables().Render() != res.ComputeTables().Render() {
			t.Errorf("seed %d: 3x-workers tables diverge from the default-workers run", seed)
		}
	}
}

// TestWorkerCountsTruncation: the deadline semantics hold at four times the
// default workers — a deadline mid-run yields a flagged, internally
// consistent partial result in which every record the many enumerators and
// identifiers drained is folded and streamed, not dropped, and the stream
// is closed exactly once.
func TestWorkerCountsTruncation(t *testing.T) {
	sink := &cancelAfterSink{after: 2}
	c, err := NewCensus(withWorkers(CensusConfig{
		Seed:     7,
		Scale:    32768,
		StreamTo: sink,
	}, 4))
	if err != nil {
		t.Fatal(err)
	}
	// The sink stalls the third record past the deadline, so the deadline
	// fires mid-run however fast the machine is.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(50*time.Millisecond))
	defer cancel()
	sink.block = make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(sink.block) })

	res, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("deadline-truncated census returned error: %v", err)
	}
	if !res.Truncated || res.TruncatedBy != TruncateDeadline {
		t.Errorf("Truncated=%v TruncatedBy=%q, want true/%q", res.Truncated, res.TruncatedBy, TruncateDeadline)
	}
	if res.Robustness.Failures[TruncateDeadline] != 1 {
		t.Errorf("robustness missing %q class: %v", TruncateDeadline, res.Robustness.Failures)
	}
	if res.Observed != res.Robustness.Records {
		t.Errorf("observed %d != robustness records %d", res.Observed, res.Robustness.Records)
	}
	if sink.seen != res.Observed {
		t.Errorf("stream saw %d records, result observed %d — drained records must all be folded",
			sink.seen, res.Observed)
	}
	if sink.closes != 1 {
		t.Errorf("stream closed %d times, want exactly once", sink.closes)
	}
	if out := res.ComputeTables().Render(); !strings.Contains(out, "Table I") {
		t.Error("partial tables failed to render")
	}
}
