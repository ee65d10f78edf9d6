package zmap

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// Result is one responsive address found by host discovery.
type Result struct {
	IP simnet.IP
}

// Config controls a scan.
type Config struct {
	// Network is the simulated Internet to probe.
	Network *simnet.Network
	// Base and Size delimit the target range [Base, Base+Size).
	Base simnet.IP
	Size uint64
	// Port is the TCP port to probe (21 for the census).
	Port uint16
	// Seed orders the permutation.
	Seed uint64
	// Workers is the probe parallelism; 0 means 64.
	Workers int
	// RatePerSec caps total probes per second across the whole scan; 0
	// disables limiting (the simulation has no intermediary networks to
	// protect, but the limiter is exercised in tests and real deployments
	// would use it). Sharded scanners divide the cap: N cooperating
	// shards each take ~RatePerSec/N so together they stay at the global
	// cap (see EffectiveRate).
	RatePerSec int
	// Retries sends up to this many additional probes to non-responsive
	// addresses, recovering deterministic "packet loss" in the
	// simulation as retransmission does for real scans.
	Retries int
	// Shard/TotalShards split the scan across cooperating scanners;
	// TotalShards 0 means unsharded. Each shard walks its own stride of
	// the shared permutation — O(n/N) work per shard, not a filtered
	// full walk.
	Shard       int
	TotalShards int
	// StartCursor resumes the permutation walk at this many group steps
	// from its start — the value a previous scan's Cursor() reported when
	// it was halted. Zero starts from the beginning.
	StartCursor uint64
	// Exclusions lists ranges that must never be probed (opt-out
	// requests, critical infrastructure); nil means none.
	Exclusions *ExclusionList
	// Metrics, when non-nil, registers the scanner's counters under
	// zmap.* so live progress and snapshots can read probe rates.
	Metrics *obs.Registry
	// MetricsPrefix namespaces this scanner's counters (e.g. "shard3."
	// yields shard3.zmap.probed) while still feeding the unprefixed
	// global counters, so per-shard and merged views coexist in one
	// registry. Empty means unprefixed.
	MetricsPrefix string
}

// Stats counts scanner activity. The fields are obs counters: with
// Config.Metrics set they are registry views (zmap.probed, zmap.responded,
// zmap.excluded); otherwise they are standalone.
type Stats struct {
	Probed    *obs.Counter
	Responded *obs.Counter
	Excluded  *obs.Counter
}

// Scanner performs ZMap-style host discovery.
type Scanner struct {
	cfg   Config
	Stats Stats

	// Checkpoint accounting. cursor is the permutation position (group
	// steps) the producer last committed — stable while the producer is
	// parked or after it stops, which is exactly when checkpoints read it.
	// emitted counts offsets handed to probe workers; dead counts offsets
	// that can never yield a record (excluded, or non-responsive after
	// retries). emitted − dead − accepted-downstream is the pipeline's
	// in-flight count: zero means the cursor is an exact watermark.
	cursor  atomic.Uint64
	emitted atomic.Uint64
	dead    atomic.Uint64

	// halted asks the producer to stop at the next offset boundary;
	// haltCh wakes a parked producer so Halt works mid-pause.
	halted   atomic.Bool
	haltOnce sync.Once
	haltCh   chan struct{}

	// Pause/Resume handshake: pauseFlag is the producer's cheap per-offset
	// check; the channels carry the parked/resume edges.
	pauseFlag atomic.Bool
	mu        sync.Mutex
	paused    bool
	parkedCh  chan struct{}
	resumeCh  chan struct{}
	// prodDone closes when the producer goroutine exits, so Pause never
	// blocks on a walk that already finished.
	prodDone chan struct{}
}

// NewScanner validates configuration.
func NewScanner(cfg Config) (*Scanner, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("zmap: nil network")
	}
	if cfg.Size == 0 {
		return nil, fmt.Errorf("zmap: empty target range")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.TotalShards > 0 && (cfg.Shard < 0 || cfg.Shard >= cfg.TotalShards) {
		return nil, fmt.Errorf("zmap: shard %d out of range [0,%d)", cfg.Shard, cfg.TotalShards)
	}
	return &Scanner{cfg: cfg, Stats: Stats{
		Probed:    cfg.Metrics.ChildCounter(cfg.MetricsPrefix, "zmap.probed"),
		Responded: cfg.Metrics.ChildCounter(cfg.MetricsPrefix, "zmap.responded"),
		Excluded:  cfg.Metrics.ChildCounter(cfg.MetricsPrefix, "zmap.excluded"),
	}, haltCh: make(chan struct{}), prodDone: make(chan struct{})}, nil
}

// Cursor returns the last committed permutation position (group steps
// consumed). It is an exact resume watermark only once the scanner is
// halted or parked and everything it emitted has drained downstream.
func (s *Scanner) Cursor() uint64 { return s.cursor.Load() }

// Emitted returns the number of offsets handed to probe workers.
func (s *Scanner) Emitted() uint64 { return s.emitted.Load() }

// Dead returns the number of emitted offsets that terminated inside the
// scanner: excluded addresses and addresses that never responded.
func (s *Scanner) Dead() uint64 { return s.dead.Load() }

// Halt asks the producer to stop emitting at the next offset boundary and
// commit its cursor. Unlike context cancellation, a halt does not abort
// in-flight work: probe workers and downstream stages keep draining
// everything already emitted, so the scan ends with the cursor an exact
// watermark — the foundation of checkpoint-on-truncation. Idempotent.
func (s *Scanner) Halt() {
	s.haltOnce.Do(func() {
		s.halted.Store(true)
		close(s.haltCh)
	})
}

// Pause asks the producer to park at the next offset boundary and blocks
// until it has (or until the walk finishes on its own). While parked the
// cursor is committed and no new offsets enter the pipeline, so a
// checkpoint coordinator can wait for in-flight work to drain and then
// snapshot a consistent (cursor, aggregate) pair. Resume continues the walk.
func (s *Scanner) Pause() {
	s.mu.Lock()
	if s.paused {
		parked := s.parkedCh
		s.mu.Unlock()
		select {
		case <-parked:
		case <-s.prodDone:
		}
		return
	}
	s.paused = true
	s.parkedCh = make(chan struct{})
	s.resumeCh = make(chan struct{})
	parked := s.parkedCh
	s.pauseFlag.Store(true)
	s.mu.Unlock()
	select {
	case <-parked:
	case <-s.prodDone:
	}
}

// Resume releases a paused producer. A no-op when not paused.
func (s *Scanner) Resume() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.paused {
		return
	}
	s.paused = false
	s.pauseFlag.Store(false)
	close(s.resumeCh)
}

// park blocks the producer until Resume, halt, or pipeline cancellation.
// It reports whether the walk should continue.
func (s *Scanner) park(ctx context.Context) bool {
	s.mu.Lock()
	if !s.paused {
		// Resume raced ahead of the park; nothing to wait for.
		s.mu.Unlock()
		return true
	}
	parked, resume := s.parkedCh, s.resumeCh
	s.mu.Unlock()
	close(parked)
	select {
	case <-resume:
		return true
	case <-s.haltCh:
		return false
	case <-ctx.Done():
		return false
	}
}

// EffectiveRate returns this scanner's share of the global RatePerSec cap:
// an unsharded scanner takes it all; shard i of N takes RatePerSec/N, with
// the remainder spread one-each over the lowest-numbered shards, so the
// per-shard shares always sum exactly to the configured cap. Zero means
// unlimited. A shard's share never falls below 1 probe/s (a zero share
// would stall it), so with more shards than the cap the aggregate can
// exceed the cap by up to N-1 probes/s.
func (s *Scanner) EffectiveRate() int {
	rate := s.cfg.RatePerSec
	if rate <= 0 || s.cfg.TotalShards <= 1 {
		return rate
	}
	share := rate / s.cfg.TotalShards
	if s.cfg.Shard < rate%s.cfg.TotalShards {
		share++
	}
	if share < 1 {
		share = 1
	}
	return share
}

// BatchSize is the number of permutation offsets handed to a worker per
// channel operation; handoff cost amortizes across the batch, so the
// per-probe fan-out overhead is a fraction of a channel send.
const BatchSize = 256

// RunBatches scans the target range, delivering discovered hosts to out in
// slices. The channel is closed when the scan finishes. RunBatches blocks
// until complete or ctx cancels. Each delivered slice is owned by the
// receiver.
func (s *Scanner) RunBatches(ctx context.Context, out chan<- []Result) error {
	defer close(out)
	perm, err := NewShardedPermutation(s.cfg.Size, s.cfg.Seed, s.cfg.Shard, s.cfg.TotalShards)
	if err != nil {
		close(s.prodDone)
		return err
	}
	if s.cfg.StartCursor > 0 {
		if err := perm.Seek(s.cfg.StartCursor); err != nil {
			close(s.prodDone)
			return err
		}
	}
	s.cursor.Store(perm.Cursor())

	// The permutation is drained by one goroutine into a work channel of
	// offset batches; probe workers fan out from there.
	work := make(chan []uint64, 64)
	var limiter *time.Ticker
	var perTick int
	if rate := s.EffectiveRate(); rate > 0 {
		// Batch the limiter into 10ms ticks to avoid a timer per probe;
		// the budget is still accounted per offset, so the cap holds
		// regardless of batch boundaries.
		perTick = rate / 100
		if perTick < 1 {
			perTick = 1
		}
		limiter = time.NewTicker(10 * time.Millisecond)
		defer limiter.Stop()
	}

	// Probe workers hand drained batches back through free, so the walk
	// allocates only the batches in flight at once, not one per flush. Its
	// size holds every batch that can be out: a full work queue plus one
	// per worker.
	free := make(chan []uint64, cap(work)+s.cfg.Workers)
	go func() {
		defer close(s.prodDone)
		defer close(work)
		batch := make([]uint64, 0, BatchSize)
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			select {
			case work <- batch:
				s.emitted.Add(uint64(len(batch)))
				select {
				case batch = <-free:
				default:
					batch = make([]uint64, 0, BatchSize)
				}
				return true
			case <-ctx.Done():
				return false
			}
		}
		budget := perTick
		for {
			// Halt/pause are checked between offsets, where the walk
			// position and the emitted set agree exactly: every offset
			// the permutation has produced is in a flushed batch, so the
			// committed cursor is a precise watermark once the pipeline
			// drains. The atomic flags keep the common case to two loads.
			if s.halted.Load() || s.pauseFlag.Load() {
				if !flush() {
					return
				}
				s.cursor.Store(perm.Cursor())
				if s.halted.Load() {
					return
				}
				if !s.park(ctx) {
					return
				}
				continue
			}
			off, ok := perm.Next()
			if !ok {
				break
			}
			if limiter != nil {
				if budget == 0 {
					// Flush the partial batch before blocking so
					// workers stay busy while the producer waits
					// out the tick. The cancellation returns leave
					// the cursor at its last committed value: a
					// hard-canceled scan has no consistent position
					// to report, and no checkpoint reads it.
					if !flush() {
						return
					}
					select {
					case <-limiter.C:
						budget = perTick
					case <-ctx.Done():
						return
					}
				}
				budget--
			}
			batch = append(batch, off)
			if len(batch) == BatchSize {
				if !flush() {
					return
				}
			}
		}
		flush()
		s.cursor.Store(perm.Cursor())
	}()

	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var found []Result
			for batch := range work {
				found = found[:0]
				var excluded, probed uint64
				for _, off := range batch {
					ip := simnet.IP(uint64(s.cfg.Base) + off)
					if s.cfg.Exclusions.Excluded(ip) {
						excluded++
						continue
					}
					probed++
					if s.cfg.Network.ProbeRetries(ip, s.cfg.Port, s.cfg.Retries) {
						found = append(found, Result{IP: ip})
					}
				}
				select {
				case free <- batch[:0]:
				default:
				}
				// The counters move once per batch, before the batch's
				// offsets count as dead or reach downstream, so a
				// checkpoint that sees the pipeline drained also sees
				// every probe counted.
				if excluded > 0 {
					s.Stats.Excluded.Add(excluded)
				}
				if probed > 0 {
					s.Stats.Probed.Add(probed)
				}
				if len(found) > 0 {
					s.Stats.Responded.Add(uint64(len(found)))
				}
				if dead := excluded + probed - uint64(len(found)); dead > 0 {
					s.dead.Add(dead)
				}
				if len(found) == 0 {
					continue
				}
				res := make([]Result, len(found))
				copy(res, found)
				select {
				case out <- res:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.halted.Load() && ctx.Err() == nil {
		// A halted scan is a deliberate early stop, not a failure: the
		// caller holds the cursor and resumes later.
		return nil
	}
	return ctx.Err()
}

// Run scans the target range, sending results to out one at a time. The
// channel is closed when the scan finishes. Run blocks until complete or
// ctx cancels. It adapts RunBatches for callers that prefer a flat stream.
func (s *Scanner) Run(ctx context.Context, out chan<- Result) error {
	defer close(out)
	batches := make(chan []Result, 64)
	errc := make(chan error, 1)
	go func() { errc <- s.RunBatches(ctx, batches) }()
	for batch := range batches {
		for _, r := range batch {
			select {
			case out <- r:
			case <-ctx.Done():
				for range batches {
					// Drain so the scan goroutine can finish.
				}
				return <-errc
			}
		}
	}
	return <-errc
}

// Collect runs the scan and gathers all results into a slice.
func (s *Scanner) Collect(ctx context.Context) ([]Result, error) {
	out := make(chan []Result, 64)
	var results []Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range out {
			results = append(results, batch...)
		}
	}()
	err := s.RunBatches(ctx, out)
	<-done
	return results, err
}
