package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"reflect"
	"sync/atomic"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/zmap"
)

// CheckpointPolicy makes a census resumable. With a policy configured,
// caller cancellation no longer tears the pipeline down: the scanner halts
// at a batch boundary, everything already emitted drains through the sink
// chain, and Write receives a checkpoint whose cursor exactly covers the
// records the run streamed. A checkpoint is a position in the StreamTo
// ledger, which a policy therefore needs. A later run configured with
// Resume re-folds that ledger prefix and continues as if the interruption
// never happened.
type CheckpointPolicy struct {
	// Write persists one checkpoint — on truncation always, and at each
	// quiescent point when Every is set. The snapshot carries the observed
	// count and its Checkpoint; its accumulators are empty, since the
	// ledger holds that state. Write is never called concurrently with
	// itself. Must not be nil.
	Write func(*analysis.Snapshot) error
	// Every enables periodic checkpoints: at this interval the coordinator
	// parks the scanner, waits for in-flight work to drain, flushes the
	// ledger, and writes a snapshot — so even a SIGKILL loses at most one
	// interval of work. Zero disables periodic writes (truncation still
	// checkpoints).
	Every time.Duration
	// DrainGrace bounds how long truncation waits for in-flight work to
	// drain before hard-canceling the pipeline. After a hard cancel no
	// checkpoint is written — the cursor is no longer exact. Zero means
	// 30s.
	DrainGrace time.Duration
}

// ErrCheckpointMismatch rejects a Resume checkpoint written under a
// different world or pipeline configuration, or one whose ledger prefix
// does not re-fold to the checkpoint's record count and robustness
// counters; continuing it would silently change the measurement semantics
// mid-series.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match census configuration")

// pipeRuntime exposes the running pipeline's live pieces to the checkpoint
// coordinator: the scanner (halt/pause/cursor) and the accounting that
// defines quiescence.
type pipeRuntime struct {
	scanner    *zmap.Scanner
	accepted   atomic.Uint64
	sinkFailed atomic.Bool
}

// censusFold is a run's one sink chain and the state it folds into:
// Tee(StreamTo, agg, robust), fed only by the pipeline's drain goroutine. A
// resumed run folds its ledger prefix into agg and robust, and takes the
// discovery counters and the scan cursor from its checkpoint, before the
// pipeline starts, so the earlier run's records are folded in exactly
// once.
type censusFold struct {
	sink   dataset.Sink
	agg    *analysis.Aggregator
	robust *Robustness
	// probed and responded carry the resumed checkpoint's discovery
	// counters; the scanner's own counters add on top. cursor is the
	// checkpoint's permutation position, where the scanner starts.
	probed, responded uint64
	cursor            uint64
}

// newFold builds the run's sink chain. The aggregator resolves each
// record's HTTP join through a per-record truth lookup, so the join covers
// exactly the records that flowed — even when the run is cancelled
// mid-flight. A resume re-folds the ledger prefix one record at a time and
// refuses it unless it holds the checkpoint's record count and re-folds to
// its robustness counters: a ledger from another run, or cut elsewhere,
// would seed tables the checkpoint never saw.
func (c *Census) newFold(resume *analysis.CheckpointState) (*censusFold, error) {
	f := &censusFold{
		agg:    analysis.NewAggregator(c.World.ASDB, truthHTTP(c.World)),
		robust: &Robustness{},
	}
	if resume != nil {
		if ledger := c.Config.Resume.Ledger; ledger != nil {
			if err := dataset.Read(ledger, dataset.Tee(f.agg, f.robust)); err != nil {
				return nil, fmt.Errorf("core: resume ledger: %w", err)
			}
		}
		if n := f.agg.Observed(); n != resume.Streamed {
			return nil, fmt.Errorf("%w: the ledger holds %d records, the checkpoint %d", ErrCheckpointMismatch, n, resume.Streamed)
		}
		if !sameRobustness(*f.robust, resume.Robustness) {
			return nil, fmt.Errorf("%w: the ledger's robustness counters differ from the checkpoint's", ErrCheckpointMismatch)
		}
		f.probed, f.responded = resume.Probed, resume.Responded
		f.cursor = resume.Cursors[0]
	}
	var sinks []dataset.Sink
	if c.Config.StreamTo != nil {
		sinks = append(sinks, c.Config.StreamTo)
	}
	f.sink = dataset.Tee(append(sinks, f.agg, f.robust)...)
	return f, nil
}

// sameRobustness compares two robustness ledgers; a failure map that is
// nil equals an empty one, as gob decodes an empty map as nil.
func sameRobustness(a, b Robustness) bool {
	fa, fb := a.Failures, b.Failures
	a.Failures, b.Failures = nil, nil
	return reflect.DeepEqual(a, b) && maps.Equal(fa, fb)
}

// quiescentCheckpoint pauses the scanner, waits until everything emitted
// has been accounted (dead or accepted by the sink chain), flushes the
// ledger, writes a checkpoint, and resumes the walk. Runs on the obs.Every
// goroutine, so invocations never overlap.
func (c *Census) quiescentCheckpoint(pipeCtx context.Context, rt *pipeRuntime, fold *censusFold) {
	sc := rt.scanner
	sc.Pause()
	defer sc.Resume()

	// Quiescence: with the producer parked, emitted is frozen, so the
	// in-flight count only decreases. accepted is bumped after each
	// record's folds complete, so pending == 0 is also the memory barrier
	// that makes reading the fold below race-free: the drain goroutine is
	// the fold's only other reader and writer. The drain is polled on one
	// ticker per checkpoint, not a fresh timer per spin.
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	for {
		if rt.sinkFailed.Load() {
			return
		}
		if sc.Emitted()-sc.Dead()-rt.accepted.Load() == 0 {
			break
		}
		select {
		case <-pipeCtx.Done():
			return
		case <-poll.C:
		}
	}

	// Flush the stream so the ledger on disk holds exactly the records
	// the checkpoint counts.
	if f, ok := c.Config.StreamTo.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			c.Config.Metrics.Counter("census.checkpoint_errors").Inc()
			return
		}
	}

	probed := fold.probed + sc.Stats.Probed.Load()
	responded := fold.responded + sc.Stats.Responded.Load()
	if err := c.Config.Checkpoint.Write(c.checkpoint(sc.Cursor(), fold.agg.Observed(), probed, responded, false, *fold.robust)); err != nil {
		c.Config.Metrics.Counter("census.checkpoint_errors").Inc()
		return
	}
	c.Config.Metrics.Counter("census.checkpoints").Inc()
}

// checkpoint assembles a checkpoint: the census position, with empty
// accumulators. The stream sink sits first in the chain, so every observed
// record is on the ledger. The wire form keeps the shard count and a
// cursor list, so a census writes one shard and one cursor. The robustness
// ledger is copied, so the live one can keep folding.
func (c *Census) checkpoint(cursor uint64, observed int, probed, responded uint64, truncated bool, robust Robustness) *analysis.Snapshot {
	robust.Failures = maps.Clone(robust.Failures)
	p := c.World.Params
	return &analysis.Snapshot{Observed: observed, Checkpoint: &analysis.CheckpointState{
		Seed:         p.Seed,
		Epoch:        p.Epoch,
		Scale:        p.Scale,
		Shards:       1,
		ScanSize:     c.World.ScanSize,
		ConfigDigest: c.configDigest(),
		Cursors:      []uint64{cursor},
		Streamed:     observed,
		Probed:       probed,
		Responded:    responded,
		Truncated:    truncated,
		Robustness:   robust,
	}}
}

// resumeState validates the configured Resume checkpoint against this
// census, returning it (nil when not resuming). A checkpoint written by a
// census that split its scan over several shards cannot seed the one
// permutation walk, so it is refused. newFold checks the ledger.
func (c *Census) resumeState() (*analysis.CheckpointState, error) {
	if c.Config.Resume == nil {
		return nil, nil
	}
	cp := c.Config.Resume.Checkpoint
	if cp == nil {
		return nil, fmt.Errorf("%w: no checkpoint state (a plain aggregate cannot seed the scan position)", ErrCheckpointMismatch)
	}
	p := c.World.Params
	switch {
	case cp.Seed != p.Seed:
		return nil, fmt.Errorf("%w: seed %d != %d", ErrCheckpointMismatch, cp.Seed, p.Seed)
	case cp.Epoch != p.Epoch:
		return nil, fmt.Errorf("%w: epoch %d != %d", ErrCheckpointMismatch, cp.Epoch, p.Epoch)
	case cp.Scale != p.Scale:
		return nil, fmt.Errorf("%w: scale %d != %d", ErrCheckpointMismatch, cp.Scale, p.Scale)
	case cp.ScanSize != c.World.ScanSize:
		return nil, fmt.Errorf("%w: scan size %d != %d", ErrCheckpointMismatch, cp.ScanSize, c.World.ScanSize)
	case cp.Shards != 1:
		return nil, fmt.Errorf("%w: checkpoint has %d shards, a census runs one", ErrCheckpointMismatch, cp.Shards)
	case len(cp.Cursors) != 1:
		return nil, fmt.Errorf("%w: %d cursors, want 1", ErrCheckpointMismatch, len(cp.Cursors))
	case cp.ConfigDigest != c.configDigest():
		return nil, fmt.Errorf("%w: measurement configuration changed (digest %#x != %#x)", ErrCheckpointMismatch, cp.ConfigDigest, c.configDigest())
	}
	return cp, nil
}

// configDigest fingerprints every knob beyond (seed, epoch, scale) that
// changes what a census observes; resume refuses a checkpoint whose
// digest differs. Parallelism and metrics wiring are excluded —
// they change how the run executes, not what it measures.
func (c *Census) configDigest() uint64 {
	h := fnv.New64a()
	cfg := c.Config
	p := c.World.Params
	// Every census validates PORT and collects certificates; the two
	// flags stay in the digest so earlier checkpoints still resume.
	fmt.Fprintf(h, "retries=%d loss=%g portprobe=true tls=true cap=%d identify=%t idwait=%s enumtimeout=%s enumretry=%+v hostbudget=%s bytebudget=%d",
		cfg.Retries, cfg.LossRate, cfg.RequestCap,
		cfg.Identify, cfg.IdentifyWait, cfg.EnumTimeout, cfg.EnumRetry, cfg.HostBudget, cfg.ByteBudget)
	fmt.Fprintf(h, " hostile=%g faultmix=%+v servicemix=%+v churn=%g/%g/%g",
		p.HostileRate, p.FaultMix, p.ServiceMix, p.ChurnRate, p.UpgradeRate, p.ReallocRate)
	return h.Sum64()
}
