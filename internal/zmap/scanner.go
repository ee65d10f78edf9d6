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
	// RatePerSec caps the scanner's probes per second; 0 disables
	// limiting (the simulation has no intermediary networks to protect,
	// but the limiter is exercised in tests and real deployments would
	// use it).
	RatePerSec int
	// Retries sends up to this many additional probes to non-responsive
	// addresses, recovering deterministic "packet loss" in the
	// simulation as retransmission does for real scans.
	Retries int
	// StartCursor resumes the permutation walk at this many group steps
	// from its start — the value a previous scan's Cursor() reported when
	// it stopped. Zero starts from the beginning.
	StartCursor uint64
	// Exclusions lists ranges that must never be probed (opt-out
	// requests, critical infrastructure); nil means none.
	Exclusions *ExclusionList
	// OnFound, when non-nil, receives each probe batch's responsive
	// addresses as the worker counts them, before the batch goes
	// downstream: a checkpoint coordinator records them there as in
	// flight. The slice is only valid during the call. It is called from
	// many workers at once.
	OnFound func([]Result)
	// Metrics, when non-nil, registers the scanner's counters under
	// zmap.* so live progress and snapshots can read probe rates.
	Metrics *obs.Registry
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
	// retries) and responded the responsive ones, each counted once its
	// batch has been through OnFound. emitted == dead + responded means
	// every offset behind the cursor has been probed: each responsive
	// address is downstream or already handled (see Settle).
	cursor    atomic.Uint64
	emitted   atomic.Uint64
	dead      atomic.Uint64
	responded atomic.Uint64

	// Pause/Resume handshake: pauseFlag is the producer's cheap per-offset
	// check; pauseReq closes when a pause is asked for, waking a producer
	// blocked handing over a batch; the channels carry the parked/resume
	// edges.
	pauseFlag atomic.Bool
	pauseReq  atomic.Pointer[chan struct{}]
	mu        sync.Mutex
	paused    bool
	parkedCh  chan struct{}
	resumeCh  chan struct{}
	// prodDone closes when the producer goroutine exits, so Pause never
	// blocks on a walk that already finished.
	prodDone chan struct{}
	// settledCh, when set, is closed by the probe worker that settles the
	// last emitted offset while the producer is paused (see Settle).
	settledCh chan struct{}
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
	s := &Scanner{cfg: cfg, Stats: Stats{
		Probed:    cfg.Metrics.Counter("zmap.probed"),
		Responded: cfg.Metrics.Counter("zmap.responded"),
		Excluded:  cfg.Metrics.Counter("zmap.excluded"),
	}, prodDone: make(chan struct{})}
	req := make(chan struct{})
	s.pauseReq.Store(&req)
	return s, nil
}

// Cursor returns the last committed permutation position (group steps
// consumed). It is an exact resume watermark once RunBatches has returned,
// for any reason, or while the producer is parked and Settle has returned:
// every offset before it has been probed, and every responsive one has gone
// through Config.OnFound. Downstream work on those addresses may still be
// in flight, or dropped by a cancelled consumer; a checkpoint carries them
// beside the cursor.
func (s *Scanner) Cursor() uint64 { return s.cursor.Load() }

// Emitted returns the number of offsets handed to probe workers. It is
// frozen while the producer is parked, and once it has stopped.
func (s *Scanner) Emitted() uint64 { return s.emitted.Load() }

// Dead returns the number of emitted offsets that terminated inside the
// scanner: excluded addresses and addresses that never responded.
func (s *Scanner) Dead() uint64 { return s.dead.Load() }

// Pause asks the producer to park at the next offset boundary and blocks
// until it has (or until the walk finishes on its own). While parked the
// cursor is committed and no new offsets enter the pipeline, so a
// checkpoint coordinator can Settle the emitted offsets and cut the
// pipeline at the cursor without waiting for anything downstream. Resume
// continues the walk.
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
	close(*s.pauseReq.Load())
	s.mu.Unlock()
	select {
	case <-parked:
	case <-s.prodDone:
	}
}

// Settle blocks until the probe workers are done with every offset the
// producer emitted: each is counted dead or responsive, and every
// responsive address has gone through Config.OnFound. It waits only on
// probing, never on the consumer of the results, since a worker counts its
// batch before sending it on. Call it between Pause and Resume, when
// Emitted is frozen. It reports false if ctx ends first.
func (s *Scanner) Settle(ctx context.Context) bool {
	s.mu.Lock()
	if s.settled() {
		s.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	s.settledCh = ch
	s.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		return false
	}
}

// settled reports whether every emitted offset has been counted.
func (s *Scanner) settled() bool {
	return s.dead.Load()+s.responded.Load() == s.emitted.Load()
}

// signalSettled wakes a Settle waiting on the last emitted offset. Workers
// call it after counting a batch, and only while paused, so the walk
// itself never takes the lock.
func (s *Scanner) signalSettled() {
	s.mu.Lock()
	if s.settledCh != nil && s.settled() {
		close(s.settledCh)
		s.settledCh = nil
	}
	s.mu.Unlock()
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
	req := make(chan struct{})
	s.pauseReq.Store(&req)
	close(s.resumeCh)
}

// park blocks the producer until Resume or cancellation.
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
	case <-ctx.Done():
		return false
	}
}

// BatchSize is the number of permutation offsets handed to a worker per
// channel operation; handoff cost amortizes across the batch, so the
// per-probe fan-out overhead is a fraction of a channel send.
const BatchSize = 256

// RunBatches scans the target range, delivering discovered hosts to out in
// slices. The channel is closed when the scan finishes. RunBatches blocks
// until complete or ctx cancels; cancellation is how a scan is stopped
// early, and the cursor it commits then is an exact resume point (see
// Cursor). Each delivered slice is owned by the receiver.
func (s *Scanner) RunBatches(ctx context.Context, out chan<- []Result) error {
	defer close(out)
	perm, err := NewPermutation(s.cfg.Size, s.cfg.Seed)
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
	// offset batches; probe workers fan out from there. The channel is
	// unbuffered, so an emitted batch is always in a worker's hands: a
	// paused scan settles once the batches being probed are counted, not
	// after a queue of them behind workers that wait on the consumer.
	work := make(chan []uint64)
	var limiter *time.Ticker
	var perTick int
	if rate := s.cfg.RatePerSec; rate > 0 {
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
	// size holds every batch that can be out: one per worker, plus the
	// one the producer fills.
	free := make(chan []uint64, s.cfg.Workers+1)
	go func() {
		defer close(s.prodDone)
		defer close(work)
		batch := make([]uint64, 0, BatchSize)
		// start is the walk position at the batch's first offset: the
		// offsets of a batch not yet handed over are not emitted, so the
		// walk commits start whenever it stops, and a resumed walk
		// produces that batch again.
		start := perm.Cursor()
		defer func() { s.cursor.Store(start) }()
		// flush hands the batch to a worker. It gives up, keeping the
		// batch, when a pause is asked for meanwhile, so the producer
		// parks at once even while every worker waits on the consumer; it
		// reports false only on cancellation. The caller checks the flag
		// next.
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
				start = perm.Cursor()
				return true
			case <-*s.pauseReq.Load():
				return true
			case <-ctx.Done():
				return false
			}
		}
		budget := perTick
		exhausted := false
		for {
			// A pause is checked between offsets, where the walk position
			// and the emitted set agree exactly: every offset before start
			// has been handed to a worker, so the committed cursor is a
			// precise watermark once those batches are probed. The atomic
			// flag keeps the common case to one load.
			if s.pauseFlag.Load() {
				s.cursor.Store(start)
				if !s.park(ctx) {
					return
				}
				continue
			}
			if len(batch) == BatchSize || (exhausted && len(batch) > 0) {
				if !flush() {
					return
				}
				continue
			}
			if exhausted {
				start = perm.Cursor()
				return
			}
			if limiter != nil {
				if budget == 0 {
					// Flush the partial batch before blocking so
					// workers stay busy while the producer waits
					// out the tick.
					if len(batch) > 0 {
						if !flush() {
							return
						}
						continue
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
			off, ok := perm.Next()
			if !ok {
				exhausted = true
				continue
			}
			batch = append(batch, off)
		}
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
				// The batch is handed to OnFound and the counters move
				// once per batch, before its offsets count as settled or
				// reach downstream, so a checkpoint that sees the scanner
				// settled also sees every probe counted and every
				// responsive address recorded.
				if len(found) > 0 && s.cfg.OnFound != nil {
					s.cfg.OnFound(found)
				}
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
				s.responded.Add(uint64(len(found)))
				if s.pauseFlag.Load() {
					s.signalSettled()
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
	// The producer commits its cursor as it stops; a cancelled scan can
	// lose its workers before the producer sees the cancellation.
	<-s.prodDone
	return ctx.Err()
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
