package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"reflect"
	"slices"
	"sync"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/zmap"
)

// CheckpointPolicy makes a census resumable. Caller cancellation stops the
// pipeline at once; once it has returned, Write receives a checkpoint: the
// scanner's cursor, the records the run streamed, and the responsive hosts
// behind the cursor without a record, the ones the cancellation cut
// included. A checkpoint is a position in the StreamTo ledger, which a
// policy therefore needs. A later run configured with Resume re-folds that
// ledger prefix, enumerates the pending hosts first and continues as if
// the interruption never happened.
type CheckpointPolicy struct {
	// Write persists one checkpoint — on truncation always, and at each
	// periodic cut when Every is set. The snapshot carries the observed
	// count and its Checkpoint; its accumulators are empty, since the
	// ledger holds that state. Write runs while the pipeline keeps going,
	// on a snapshot nothing else references. It is never called
	// concurrently with itself. Must not be nil.
	Write func(*analysis.Snapshot) error
	// Every enables periodic checkpoints. At this interval the
	// coordinator cuts the pipeline instead of draining it: it parks the
	// scanner until the offsets already emitted have been probed, the
	// drain flushes the ledger between two records, and the checkpoint
	// carries the cursor plus the responsive hosts still in flight
	// (Checkpoint.Pending), which a resume enumerates first. The scanner
	// is parked only for the cut, not while those hosts finish, and a
	// SIGKILL loses at most one interval of work. Zero disables periodic
	// writes (truncation still checkpoints).
	Every time.Duration
}

// ErrCheckpointMismatch rejects a Resume checkpoint written under a
// different world or pipeline configuration, one whose ledger prefix does
// not re-fold to the checkpoint's record count and robustness counters,
// or one whose pending hosts are not the responsive hosts its ledger
// lacks; continuing it would silently change the measurement semantics
// mid-series.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match census configuration")

// pipeRuntime exposes the running pipeline's live pieces to the checkpoint
// coordinator: the scanner (pause/cursor), the set of responsive hosts in
// flight, and the drain's side of a cut.
type pipeRuntime struct {
	scanner *zmap.Scanner
	pending *pendingSet
	// cuts carries a begun cut to the drain, which takes its half; it
	// holds one, as one cut is under way at a time. drainDone closes when
	// the drain goroutine exits, after which no cut completes.
	cuts      chan cutRequest
	drainDone chan struct{}
}

// cutRequest asks the drain for its half of cut number n.
type cutRequest struct {
	n     uint64
	reply chan drainCut
}

// pendingSet holds the responsive hosts discovered but not yet folded. A
// probe worker adds each batch's responsive addresses before sending the
// batch on (zmap.Config.OnFound), a resume starts the set with the
// checkpoint's pending hosts, and the drain removes a host as it folds the
// host's record or shed result. Every responsive host is therefore either
// in the ledger or in this set. Each host is stamped with the number of
// cuts begun when it was found, so a cut's pending list leaves out the
// hosts found after it.
type pendingSet struct {
	mu   sync.Mutex
	ips  map[simnet.IP]uint64
	cuts uint64
}

func newPendingSet(resumed []simnet.IP) *pendingSet {
	p := &pendingSet{ips: make(map[simnet.IP]uint64, len(resumed))}
	for _, ip := range resumed {
		p.ips[ip] = 0
	}
	return p
}

// found adds one probe batch's responsive hosts.
func (p *pendingSet) found(batch []zmap.Result) {
	p.mu.Lock()
	for _, r := range batch {
		p.ips[r.IP] = p.cuts
	}
	p.mu.Unlock()
}

// begin starts the next cut and returns its number: the hosts behind it
// are those found so far.
func (p *pendingSet) begin() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cuts++
	return p.cuts
}

// fold removes the host a record names and returns the number of cuts
// begun when it was found.
func (p *pendingSet) fold(ip string) uint64 {
	n, err := simnet.ParseIP(ip)
	if err != nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	stamp := p.ips[n]
	delete(p.ips, n)
	return stamp
}

// behind returns, in ascending order, the hosts in flight that were found
// before cut number n began.
func (p *pendingSet) behind(n uint64) []simnet.IP {
	p.mu.Lock()
	ips := make([]simnet.IP, 0, len(p.ips))
	for ip, stamp := range p.ips {
		if stamp < n {
			ips = append(ips, ip)
		}
	}
	p.mu.Unlock()
	slices.Sort(ips)
	return ips
}

// censusFold is a run's one sink chain and the state it folds into:
// Tee(StreamTo, agg, robust), fed only by the pipeline's drain goroutine. A
// resumed run folds its ledger prefix into agg and robust, and takes the
// discovery counters, the scan cursor and the pending hosts from its
// checkpoint, before the pipeline starts, so the earlier run's records are
// folded in exactly once.
type censusFold struct {
	sink   dataset.Sink
	agg    *analysis.Aggregator
	robust *Robustness
	// probed and responded carry the resumed checkpoint's discovery
	// counters; the scanner's own counters add on top. cursor is the
	// checkpoint's permutation position, where the scanner starts, and
	// pending its hosts in flight, which enter the pipeline ahead of the
	// scanner's first batch. They were counted in responded when they
	// were found, so Responded − Streamed == len(Pending) carries over.
	probed, responded uint64
	cursor            uint64
	pending           []simnet.IP
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
		f.pending = resume.Pending
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

// drainCut is the drain's half of a cut, taken between two records: the
// ledger is flushed, and the observed count, the robustness ledger and
// the hosts in flight are copied at that point.
type drainCut struct {
	observed int
	robust   Robustness
	pending  []simnet.IP
	err      error
}

// drainHalf takes the drain's half of cut number n. It runs on the drain
// goroutine, the ledger's and the fold's only writer, so it reads them
// without synchronization, and before the drain folds any host found after
// the cut began. A failed sink chain yields no cut: the ledger is suspect.
func (c *Census) drainHalf(fold *censusFold, rt *pipeRuntime, n uint64, sinkErr error) drainCut {
	if sinkErr != nil {
		return drainCut{err: sinkErr}
	}
	// Flush the stream so the ledger on disk holds every record the
	// checkpoint counts; the records after them are a resume's to trim.
	if f, ok := c.Config.StreamTo.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			return drainCut{err: err}
		}
	}
	return fold.cut(rt.pending.behind(n))
}

// cut copies the fold's position with the given pending hosts; the
// robustness ledger is cloned, so the live one can keep folding. Only the
// drain, or the run once the drain is done, may call it.
func (f *censusFold) cut(pending []simnet.IP) drainCut {
	robust := *f.robust
	robust.Failures = maps.Clone(robust.Failures)
	return drainCut{observed: f.agg.Observed(), robust: robust, pending: pending}
}

// periodicCheckpoint cuts the running pipeline and writes the cut as a
// checkpoint. It parks the producer and waits only until the offsets
// already emitted have been probed: every responsive host behind the
// cursor is then in the pending set or the ledger. It reads the cursor and
// the discovery counters, begins the cut, and resumes the producer. The
// drain takes its half between two records, before it folds any host found
// after the cut began, and Write runs after that. Hosts in flight keep
// going throughout: the checkpoint lists them instead of waiting for them.
// Runs on the obs.Every goroutine, so invocations never overlap.
func (c *Census) periodicCheckpoint(pipeCtx context.Context, rt *pipeRuntime, fold *censusFold) {
	sc := rt.scanner
	start := time.Now()
	sc.Pause()
	if !sc.Settle(pipeCtx) {
		sc.Resume()
		return
	}
	cursor := sc.Cursor()
	probed := fold.probed + sc.Stats.Probed.Load()
	responded := fold.responded + sc.Stats.Responded.Load()
	req := cutRequest{n: rt.pending.begin(), reply: make(chan drainCut, 1)}
	select {
	case rt.cuts <- req:
	case <-rt.drainDone:
		sc.Resume()
		return
	}
	sc.Resume()
	pause := time.Since(start)

	var cut drainCut
	select {
	case cut = <-req.reply:
	case <-rt.drainDone:
		return
	}
	mets := c.Config.Metrics
	if cut.err != nil {
		mets.Counter("census.checkpoint_errors").Inc()
		return
	}
	if err := c.Config.Checkpoint.Write(c.checkpoint(cursor, probed, responded, false, cut)); err != nil {
		mets.Counter("census.checkpoint_errors").Inc()
		return
	}
	mets.Histogram("census.checkpoint.pause").Observe(pause)
	c.wrote(cut)
}

// wrote counts a written checkpoint, periodic or truncation.
func (c *Census) wrote(cut drainCut) {
	c.Config.Metrics.Counter("census.checkpoints").Inc()
	c.Config.Metrics.Gauge("census.checkpoint.pending").Set(int64(len(cut.pending)))
}

// checkpoint assembles a checkpoint from a cut: the census position, with
// empty accumulators. The stream sink sits first in the chain, so every
// observed record is on the ledger, and every other responsive host is in
// the cut's pending list. The wire form keeps the shard count and a cursor
// list, so a census writes one shard and one cursor.
func (c *Census) checkpoint(cursor, probed, responded uint64, truncated bool, cut drainCut) *analysis.Snapshot {
	p := c.World.Params
	return &analysis.Snapshot{Observed: cut.observed, Checkpoint: &analysis.CheckpointState{
		Seed:         p.Seed,
		Epoch:        p.Epoch,
		Scale:        p.Scale,
		Shards:       1,
		ScanSize:     c.World.ScanSize,
		ConfigDigest: c.configDigest(),
		Cursors:      []uint64{cursor},
		Streamed:     cut.observed,
		Probed:       probed,
		Responded:    responded,
		Truncated:    truncated,
		Robustness:   cut.robust,
		Pending:      cut.pending,
	}}
}

// resumeState validates the configured Resume checkpoint against this
// census, returning it (nil when not resuming). A checkpoint written by a
// census that split its scan over several shards cannot seed the one
// permutation walk, so it is refused, and so is a pending list that is not
// one entry per responsive host missing from the ledger, within the scan
// range. newFold checks the ledger.
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
	case cp.Streamed < 0 || cp.Responded < uint64(cp.Streamed) || cp.Responded-uint64(cp.Streamed) != uint64(len(cp.Pending)):
		return nil, fmt.Errorf("%w: %d pending hosts, but %d responded and %d streamed", ErrCheckpointMismatch, len(cp.Pending), cp.Responded, cp.Streamed)
	}
	pending := slices.Clone(cp.Pending)
	slices.Sort(pending)
	for i, ip := range pending {
		switch {
		case uint64(ip) < uint64(c.World.ScanBase) || uint64(ip)-uint64(c.World.ScanBase) >= c.World.ScanSize:
			return nil, fmt.Errorf("%w: pending host %s is outside the scan range", ErrCheckpointMismatch, ip)
		case i > 0 && ip == pending[i-1]:
			return nil, fmt.Errorf("%w: pending host %s is listed twice", ErrCheckpointMismatch, ip)
		}
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
