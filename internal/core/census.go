// Package core is the library's public face: it wires the substrates into
// the paper's end-to-end measurement pipeline. A Census builds a simulated
// world, performs ZMap-style host discovery on TCP/21, runs the enumerator
// fleet against every responsive host, and hands the dataset to the
// analysis layer that regenerates each of the paper's tables and figures.
//
// The same package exposes the honeypot study (§VIII) runner.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"sync"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/attacker"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/honeypot"
	"ftpcloud/internal/identify"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/worldgen"
	"ftpcloud/internal/zmap"
)

// Infrastructure addresses live far above the world generator's
// allocations (which grow upward from 1.0.0.0).
var (
	// ScannerBase is the first source address of the measurement fleet.
	ScannerBase = simnet.MustParseIP("250.0.0.1")
	// CollectorIP hosts the PORT-validation collector.
	CollectorIP = simnet.MustParseIP("250.0.255.1")
	// HoneypotBase is where the honeypot study deploys.
	HoneypotBase = simnet.MustParseIP("250.1.0.1")
	// IdentifyBase is the first source address of the identification
	// stage; worker i binds IdentifyBase + i. The block sits above the
	// honeypot range so it can never collide with enumerator sources or
	// deployed listeners.
	IdentifyBase = simnet.MustParseIP("250.2.0.1")
)

// maxEnumWorkers is how many enumerator source addresses fit between
// ScannerBase and CollectorIP: a larger fleet would bind a source on the
// collector's address.
var maxEnumWorkers = int(CollectorIP - ScannerBase)

// CensusConfig sizes a census run.
type CensusConfig struct {
	// Seed derandomizes the world and the scan order.
	Seed uint64
	// Scale divides the paper's full-Internet population (see worldgen).
	Scale int
	// ScanWorkers / EnumWorkers set stage parallelism.
	ScanWorkers int
	EnumWorkers int
	// ScanRate caps discovery probes per second (the paper's ZMap rate
	// knob); 0 means unthrottled. Pacing changes when hosts are observed,
	// never what is observed, so it is not part of the checkpoint's
	// config digest.
	ScanRate int
	// Retries resends discovery probes to absorb simulated loss.
	Retries int
	// LossRate injects deterministic probe loss.
	LossRate float64
	// RequestCap bounds enumerator requests per connection (default 500).
	RequestCap int
	// RealisticLatency applies the world's deterministic 5–150ms
	// per-pair connection-setup latency; off by default because it
	// costs real wall-clock time.
	RealisticLatency bool
	// Params overrides the generated world's parameters entirely when
	// non-nil.
	Params *worldgen.Params

	// Epoch advances the generated world through deterministic churn for
	// longitudinal series (see worldgen.Params.Epoch): same Seed, later
	// Epoch, and a fraction of hosts have left, appeared, upgraded, or
	// changed AS. Zero is today's world. Ignored when Params is set
	// (set Params.Epoch there instead).
	Epoch uint64

	// HostileRate assigns this fraction of FTP hosts a hostile fault
	// personality (slow drip, mid-session reset, stalled data channels,
	// garbage replies, premature EOF, connect latency). Zero — the
	// default — keeps the calibrated benign world. Ignored when Params
	// is set (override Params.HostileRate there instead).
	HostileRate float64
	// FaultMix weights the hostile classes; the zero value means the
	// uniform default mix. Only meaningful with HostileRate > 0.
	FaultMix worldgen.FaultMix

	// Identify inserts the LZR-style identification stage between
	// discovery and enumeration: every discovered endpoint gets one
	// connection that reads only its first response bytes (waiting for a
	// server-first banner, else sending a minimal trigger), and only
	// endpoints that speak FTP reach the enumerator fleet. Everything
	// else is recorded as a shed HostRecord (Service set to the sniffed
	// protocol) and dropped after that single round-trip. Off by default:
	// the two-stage probe→enumerate pipeline is the paper's original
	// toolchain and stays byte-identical.
	Identify bool
	// IdentifyWorkers sets the identification concurrency (default 32).
	IdentifyWorkers int
	// IdentifyWait bounds the banner and post-trigger read windows; zero
	// means identify.DefaultBannerWait.
	IdentifyWait time.Duration
	// ServiceMix populates the world's non-FTP open ports with real
	// dialable services (HTTP, SSH, TLS, telnet, garbage, silent) for the
	// identification stage to meet. The zero value keeps the legacy
	// abstract non-FTP hosts — and the world bit-identical to earlier
	// versions. Ignored when Params is set (set Params.ServiceMix there).
	ServiceMix worldgen.ServiceMix

	// EnumTimeout bounds individual enumerator control-channel
	// operations. Zero means 15s.
	EnumTimeout time.Duration
	// EnumRetry bounds enumerator transport retries (control dial,
	// banner read, data dial) with jittered backoff; the zero value
	// means the enumerator defaults.
	EnumRetry enumerator.RetryPolicy
	// HostBudget caps wall-clock time spent enumerating one host;
	// ByteBudget caps data-channel bytes read from one host. Zero means
	// the enumerator defaults; negative disables the budget.
	HostBudget time.Duration
	ByteBudget int64

	// RetainRecords is ignored: every census streams.
	//
	// Deprecated: kept only so the benchmark module still compiles; it
	// goes with the next benchmark change.
	RetainRecords Retention
	// StreamTo, when non-nil, receives every record the moment its
	// enumeration finishes — ahead of the analysis accumulators in the
	// sink chain. Run closes it when the census ends. A dataset.WriterSink
	// persists the census as a JSONL ledger in constant memory; a
	// dataset.Collector keeps the records for a caller that wants them.
	StreamTo dataset.Sink

	// Metrics, when non-nil, wires every stage into one registry: the
	// simulated network (simnet.*), discovery (zmap.*), the enumerator
	// fleet (enum.*), and the drain-side robustness deltas (census.*).
	// The caller can then serve it over expvar, diff it for progress
	// lines, or snapshot it to disk.
	Metrics *obs.Registry

	// Now stamps each host record's ScannedAt. Nil means time.Now.
	// Injecting a fixed clock makes streamed ledgers reproducible
	// byte-for-byte, which the resume-equivalence tests rely on.
	Now func() time.Time

	// Checkpoint, when non-nil, makes the census resumable: the policy's
	// Write receives a checkpoint when caller cancellation truncates the
	// run (and at periodic cuts when Every is set). A checkpoint is a
	// position in the StreamTo ledger plus the hosts in flight at it, so a
	// policy needs StreamTo. See CheckpointPolicy.
	Checkpoint *CheckpointPolicy
	// Resume, when non-nil, continues a census from the checkpoint a
	// previous run wrote. See Resume.
	Resume *Resume
}

// Resume is where a resumed census starts: a checkpoint and the ledger
// prefix it counts. Before any record flows, the run folds the prefix into
// its aggregator and robustness ledger and the scanner seeks to the saved
// cursor; the checkpoint's pending hosts enter the pipeline ahead of the
// scanner's first batch. When the caller appends to the same JSONL ledger,
// the finished series is byte-identical to an uninterrupted run. The
// checkpoint must match this configuration (same seed, epoch, scale, and
// measurement knobs), its pending hosts must lie in the scan range, once
// each, one per responsive host the ledger lacks, and the prefix must hold
// its Streamed records and re-fold to its Robustness, or Run fails with
// ErrCheckpointMismatch.
type Resume struct {
	Checkpoint *analysis.CheckpointState
	// Ledger reads the interrupted run's JSONL ledger trimmed to the
	// checkpoint: exactly its first Checkpoint.Streamed records. It is
	// read to its end before the pipeline starts.
	Ledger io.Reader
}

// Retention is the type of the ignored CensusConfig.RetainRecords.
//
// Deprecated: every census streams; see CensusConfig.RetainRecords.
type Retention int

// RetainNone is Retention's only value, the zero value.
//
// Deprecated: see CensusConfig.RetainRecords.
const RetainNone Retention = 0

// Truncation classes recorded in Result.TruncatedBy (and counted in
// Result.Robustness.Failures, never in a checkpoint's) when a run is cut
// short by its caller.
const (
	// TruncateDeadline marks a run cut by context deadline expiry.
	TruncateDeadline = "deadline"
	// TruncateCanceled marks a run cut by explicit cancellation.
	TruncateCanceled = "canceled"
)

// Robustness sums the per-record fault and degradation counters. It is the
// checkpoint's serialized ledger type itself, so a checkpoint stores it as
// is and a resumed run continues it.
type Robustness = analysis.RobustnessState

// Census is a ready-to-run measurement pipeline over one world.
type Census struct {
	Config  CensusConfig
	World   *worldgen.World
	Network *simnet.Network
}

// NewCensus synthesizes the world and network.
func NewCensus(cfg CensusConfig) (*Census, error) {
	if cfg.EnumWorkers > maxEnumWorkers {
		return nil, fmt.Errorf("core: %d enum workers exceeds the source-address block (max %d)", cfg.EnumWorkers, maxEnumWorkers)
	}
	if cfg.Checkpoint != nil && cfg.StreamTo == nil {
		return nil, errors.New("core: a checkpoint policy needs a StreamTo ledger: a checkpoint is a position in it")
	}
	if cfg.Scale < 1 {
		cfg.Scale = 2048
	}
	params := worldgen.DefaultParams(cfg.Seed, cfg.Scale)
	if cfg.Params != nil {
		params = *cfg.Params
	} else {
		params.HostileRate = cfg.HostileRate
		params.FaultMix = cfg.FaultMix
		params.ServiceMix = cfg.ServiceMix
		params.Epoch = cfg.Epoch
	}
	world, err := worldgen.New(params)
	if err != nil {
		return nil, fmt.Errorf("core: building world: %w", err)
	}
	nw := simnet.NewNetwork(world)
	if cfg.Metrics != nil {
		nw.BindMetrics(cfg.Metrics)
		world.BindMetrics(cfg.Metrics)
	}
	nw.LossRate = cfg.LossRate
	nw.LossSeed = cfg.Seed
	if world.Params.HostileRate > 0 {
		// The world doubles as the network's fault injector: transport
		// faults derive from the same truth as everything else.
		nw.Faults = world
	}
	if cfg.RealisticLatency {
		nw.Latency = world.LatencyModel()
	}
	return &Census{Config: cfg, World: world, Network: nw}, nil
}

// Result is a completed census. Every record was folded into the analysis
// accumulators (and StreamTo) as it arrived and then dropped, so a Result
// holds the aggregate state, never the dataset.
type Result struct {
	// Observed counts the records that flowed through the sink chain.
	Observed int

	// ScanDuration is the time until discovery finished; EnumDuration
	// the time until the last enumeration finished. The stages overlap
	// (enumeration follows discovery host by host), so both measure
	// from the same start.
	ScanDuration time.Duration
	EnumDuration time.Duration
	Probed       uint64
	Responded    uint64

	// Truncated reports that the run was cut short by caller
	// cancellation or deadline expiry. The result still holds every
	// record finished before the cut — a scan stopped at its deadline is
	// a usable (truncated) dataset, not a failure — and no record of a
	// host whose enumeration or identification the cut interrupted.
	// TruncatedBy names the cause: TruncateDeadline or TruncateCanceled.
	Truncated   bool
	TruncatedBy string

	// Robustness aggregates the fault and degradation counters across
	// every record — the evidence that hostile hosts degraded into
	// classified partial records instead of hanging the pipeline or
	// silently vanishing from the dataset.
	Robustness Robustness

	// agg holds the streaming accumulators Run folded every record
	// into; ComputeTables finalizes from it without touching records.
	agg     *analysis.Aggregator
	scanned uint64
}

// Run executes discovery and enumeration as an overlapping pipeline — the
// enumerator fleet follows up on hosts as the scanner discovers them, the
// way the paper's toolchain chained ZMap with its libevent enumerator.
// Every finished record flows through a sink chain in a single pass:
// first the caller's StreamTo sink (if any), then the analysis
// accumulators. The HTTP (Censys-equivalent) join is resolved per record
// inside that pass, so the join is always consistent with the records that
// actually flowed, even when the run is cancelled mid-flight.
//
// Caller cancellation stops the run at once: the scanner commits its
// cursor, and every host in flight is cut and yields no record. Run also
// owns the checkpoint machinery (see checkpoint.go): the periodic cut
// coordinator and the truncation checkpoint, which lists the hosts the
// cancellation cut.
func (c *Census) Run(callerCtx context.Context) (*Result, error) {
	start := time.Now()

	resume, err := c.resumeState()
	if err != nil {
		return nil, err
	}

	pipeCtx, cancel := context.WithCancel(callerCtx)
	defer cancel()
	// canceledAt receives the time of the caller's cancel, which starts
	// census.shutdown's measurement.
	canceledAt := make(chan time.Time, 1)
	defer context.AfterFunc(callerCtx, func() { canceledAt <- time.Now() })()

	collector, err := c.newCollector()
	if err != nil {
		return nil, err
	}
	defer collector.Close()
	fold, err := c.newFold(resume)
	if err != nil {
		return nil, err
	}
	rt := &pipeRuntime{
		pending:   newPendingSet(fold.pending),
		cuts:      make(chan cutRequest, 1),
		drainDone: make(chan struct{}),
	}
	rt.scanner, err = zmap.NewScanner(zmap.Config{
		Network:     c.Network,
		Base:        c.World.ScanBase,
		Size:        c.World.ScanSize,
		Port:        21,
		Seed:        c.Config.Seed,
		Workers:     c.Config.ScanWorkers,
		RatePerSec:  c.Config.ScanRate,
		Retries:     c.Config.Retries,
		StartCursor: fold.cursor,
		OnFound:     rt.pending.found,
		Metrics:     c.Config.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("core: scanner: %w", err)
	}

	policy := c.Config.Checkpoint
	var stopTicker func()
	if policy != nil && policy.Every > 0 {
		stopTicker = obs.Every(pipeCtx, policy.Every, func() {
			c.periodicCheckpoint(pipeCtx, rt, fold)
		})
	}

	o := c.runPipeline(pipeCtx, cancel, start, collector, fold, rt)
	if stopTicker != nil {
		stopTicker()
	}
	// Every client has closed its connections; wait for the world's
	// servers to see those closes, so the hosts they release are evicted
	// before the run's metrics are read.
	c.World.WaitIdle()

	closeErr := fold.sink.Close()
	result, runErr := c.assemble(callerCtx, start, fold, o, closeErr)
	if result == nil || !result.Truncated {
		return result, runErr
	}

	// The truncation checkpoint: the same cut as a periodic one, taken
	// once the pipeline has returned. The scanner's cursor is exact, and
	// every responsive host behind it without a record, the ones the
	// cancellation cut included, is pending. A run whose sink failed is
	// not flagged truncated and writes none: its ledger is suspect.
	if policy != nil {
		cut := fold.cut(rt.pending.behind(math.MaxUint64))
		if werr := policy.Write(c.checkpoint(rt.scanner.Cursor(), result.Probed, result.Responded, true, cut)); werr != nil {
			runErr = fmt.Errorf("core: writing truncation checkpoint: %w", werr)
		} else {
			c.wrote(cut)
		}
	}
	c.Config.Metrics.Histogram("census.shutdown").Observe(time.Since(<-canceledAt))
	return result, runErr
}

// newCollector builds the run's PORT-validation collector.
func (c *Census) newCollector() (*enumerator.SimCollector, error) {
	sim, err := enumerator.NewSimCollector(c.Network, CollectorIP, 3100)
	if err != nil {
		return nil, fmt.Errorf("core: collector: %w", err)
	}
	return sim, nil
}

// pipeOutcome is the pipeline's discovery counters, timing, and errors. Its
// records are already in the run's sink chain.
type pipeOutcome struct {
	scanDur   time.Duration
	probed    uint64
	responded uint64
	sinkErr   error
	scanErr   error
}

// runPipeline executes discovery and enumeration: rt's scanner walks the
// scan, and every record drains into the fold's sink chain. A sink failure
// cancels the run; every other error is recorded in the outcome for
// assemble to order by the established precedence. The drain keeps rt's
// pending set and takes its half of each checkpoint cut (see
// checkpoint.go).
func (c *Census) runPipeline(ctx context.Context, cancel context.CancelFunc, start time.Time, collector enumerator.Collector, fold *censusFold, rt *pipeRuntime) *pipeOutcome {
	o := &pipeOutcome{}
	scanner := rt.scanner
	enumTimeout := c.Config.EnumTimeout
	if enumTimeout == 0 {
		enumTimeout = 15 * time.Second
	}
	fleet := &enumerator.Fleet{
		Cfg: enumerator.Config{
			Collector:  collector,
			RequestCap: c.Config.RequestCap,
			TryTLS:     true,
			Timeout:    enumTimeout,
			Retry:      c.Config.EnumRetry,
			HostBudget: c.Config.HostBudget,
			ByteBudget: c.Config.ByteBudget,
			Now:        c.Config.Now,
		},
		Network:    c.Network,
		SourceBase: ScannerBase,
		Workers:    c.Config.EnumWorkers,
		Metrics:    c.Config.Metrics,
	}

	// Pipeline: scanner results flow straight into the next stage's
	// intake, in batches so discovery fan-out costs one channel handoff
	// per slice. With identification enabled the next stage is the
	// identify pool (which forwards only FTP speakers into the fleet's
	// intake); otherwise it is the fleet directly.
	found := make(chan []zmap.Result, 64)
	in := make(chan simnet.IP, 1024)
	out := make(chan *dataset.HostRecord, 1024)

	intake := in
	var idin chan simnet.IP
	var shed chan identify.Result
	if c.Config.Identify {
		idin = make(chan simnet.IP, 1024)
		shed = make(chan identify.Result, 1024)
		intake = idin
	}

	scanErr := make(chan error, 1)
	go func() {
		err := scanner.RunBatches(ctx, found)
		o.scanDur = time.Since(start)
		scanErr <- err
	}()
	// A resumed run's pending hosts enter the intake first, ahead of the
	// scanner's first batch.
	go func() {
		defer close(intake)
		send := func(ip simnet.IP) bool {
			select {
			case intake <- ip:
				return true
			case <-ctx.Done():
				// Drain so the scanner can finish closing.
				for range found {
				}
				return false
			}
		}
		for _, ip := range fold.pending {
			if !send(ip) {
				return
			}
		}
		for batch := range found {
			for _, r := range batch {
				if !send(r.IP) {
					return
				}
			}
		}
	}()
	// The single drain goroutine is the sink chain's only caller until the
	// run closes it. Between two records it takes its half of a checkpoint
	// cut: when the coordinator hands one over, or before it folds the
	// first host found after the cut began, whichever comes first. It
	// never waits on the scanner. A sink failure cancels the pipeline but
	// keeps draining so the fleet can shut down.
	mets := newCensusMetrics(c.Config.Metrics)
	drained := make(chan error, 1)
	go func() {
		defer close(rt.drainDone)
		var sinkErr error
		var taken uint64 // cuts whose half the drain has taken
		half := func(req cutRequest) {
			req.reply <- c.drainHalf(fold, rt, req.n, sinkErr)
			taken = req.n
		}
		for {
			var rec *dataset.HostRecord
			select {
			case r, ok := <-out:
				if !ok {
					drained <- sinkErr
					return
				}
				rec = r
			case req := <-rt.cuts:
				half(req)
				continue
			}
			mets.drained.Inc()
			if sinkErr != nil {
				continue
			}
			// The host leaves the pending set as its record folds (a
			// failed fold ends checkpointing, so removing it first is
			// the same). A host found after a cut began is one the
			// coordinator handed over before resuming the scanner.
			if rt.pending.fold(rec.IP) > taken {
				half(<-rt.cuts)
			}
			if err := fold.sink.Observe(rec); err != nil {
				sinkErr = err
				mets.sinkErrors.Inc()
				cancel()
				continue
			}
			mets.record(rec)
		}
	}()
	if !c.Config.Identify {
		fleet.Run(ctx, in, out)
	} else {
		// Three-stage funnel: the identify pool owns the fleet intake
		// (closing it when identification finishes), shed results and
		// fleet records merge into the one drain stream, and the drain
		// keeps consuming unconditionally — so neither forwarder ever
		// blocks against a stopped consumer, even on cancellation.
		stage := &identify.Stage{
			Cfg: identify.Config{
				BannerWait: c.Config.IdentifyWait,
			},
			Network:    c.Network,
			SourceBase: IdentifyBase,
			Workers:    c.Config.IdentifyWorkers,
			Metrics:    c.Config.Metrics,
		}
		fleetOut := make(chan *dataset.HostRecord, 1024)
		var fwd sync.WaitGroup
		fwd.Add(2)
		go func() {
			defer fwd.Done()
			stage.Run(ctx, idin, in, shed)
		}()
		go func() {
			defer fwd.Done()
			for res := range shed {
				out <- shedRecord(res)
			}
		}()
		go func() {
			for rec := range fleetOut {
				out <- rec
			}
			fwd.Wait()
			close(out)
		}()
		fleet.Run(ctx, in, fleetOut)
	}
	o.sinkErr = <-drained
	o.scanErr = <-scanErr
	o.probed = scanner.Stats.Probed.Load()
	o.responded = scanner.Stats.Responded.Load()
	return o
}

// shedRecord converts an identification result into the ledger record of a
// shed endpoint: discovered, connected, not FTP. The shape deliberately
// matches what the two-stage pipeline records for the same host — PortOpen
// set, FTP false — so the discovery funnel counts identically whether the
// endpoint burned a full enumeration or one identification round-trip; only
// the Service field (and the saved enumeration) distinguishes the paths.
func shedRecord(res identify.Result) *dataset.HostRecord {
	return &dataset.HostRecord{
		IP:       res.IP,
		PortOpen: true,
		Banner:   res.Banner,
		Service:  string(res.Protocol),
	}
}

// assemble builds the Result from the run's fold and the pipeline's
// outcome, ordering errors by the established precedence and flagging
// graceful truncation.
func (c *Census) assemble(ctx context.Context, start time.Time, fold *censusFold, o *pipeOutcome, closeErr error) (*Result, error) {
	result := &Result{
		Observed:     fold.agg.Observed(),
		ScanDuration: o.scanDur,
		EnumDuration: time.Since(start),
		Probed:       fold.probed + o.probed,
		Responded:    fold.responded + o.responded,
		Robustness:   *fold.robust,
		agg:          fold.agg,
		scanned:      c.World.ScanSize,
	}

	// Error precedence: a broken sink is fatal (the dataset is suspect)
	// but the partial result still rides along for inspection; a scanner
	// failure other than cancellation is fatal outright.
	if o.sinkErr != nil {
		return result, fmt.Errorf("core: record sink: %w", o.sinkErr)
	}
	if closeErr != nil {
		return result, fmt.Errorf("core: closing record sink: %w", closeErr)
	}
	if o.scanErr != nil && !isContextErr(o.scanErr) {
		return nil, fmt.Errorf("core: discovery scan: %w", o.scanErr)
	}

	// Caller cancellation is graceful truncation, not failure: every
	// record finished before the cut is a usable dataset — the paper's
	// days-long measurement had to survive exactly this. Every such record
	// is already folded in, and the cause is recorded once.
	if err := ctx.Err(); err != nil {
		result.Truncated = true
		result.TruncatedBy = TruncateCanceled
		if err == context.DeadlineExceeded {
			result.TruncatedBy = TruncateDeadline
		}
		// The cut is counted in the result's own copy of the failure
		// classes: the live ledger, and so any checkpoint written from
		// it, keeps only what the records carried, or a resumed run
		// would report the kill forever.
		result.Robustness.Failures = maps.Clone(result.Robustness.Failures)
		if result.Robustness.Failures == nil {
			result.Robustness.Failures = make(map[string]int)
		}
		result.Robustness.Failures[result.TruncatedBy]++
		c.Config.Metrics.Counter("census.truncated." + result.TruncatedBy).Inc()
	}
	return result, nil
}

// isContextErr reports whether err is caller cancellation or deadline
// expiry — the graceful-truncation causes.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// censusMetrics is the drain side of the registry: robustness deltas as
// they fold, so live progress can show failure classes mid-run.
type censusMetrics struct {
	reg        *obs.Registry
	drained    *obs.Counter
	observed   *obs.Counter
	partial    *obs.Counter
	terminated *obs.Counter
	sinkErrors *obs.Counter
	failures   map[string]*obs.Counter
}

// newCensusMetrics binds the drain counters.
func newCensusMetrics(reg *obs.Registry) *censusMetrics {
	return &censusMetrics{
		reg:        reg,
		drained:    reg.Counter("census.drained"),
		observed:   reg.Counter("census.observed"),
		partial:    reg.Counter("census.partial"),
		terminated: reg.Counter("census.terminated"),
		sinkErrors: reg.Counter("census.sink_errors"),
		failures:   make(map[string]*obs.Counter),
	}
}

// record mirrors one accepted record into the counters. Called only from
// the drain goroutine, so the failure-class cache needs no lock.
func (m *censusMetrics) record(rec *dataset.HostRecord) {
	m.observed.Inc()
	if rec.Partial {
		m.partial.Inc()
	}
	if rec.ConnTerminated {
		m.terminated.Inc()
	}
	if class := rec.FailureClass; class != "" {
		c, ok := m.failures[class]
		if !ok {
			c = m.reg.Counter("census.failure." + class)
			m.failures[class] = c
		}
		c.Inc()
	}
}

// truthHTTP plays the role of the paper's Censys HTTP dataset: an external
// scan of the same address space reporting web servers and their scripting
// headers, joined to each FTP host as it is observed. In the simulation the
// web-scan ground truth comes from the world generator, exactly as Censys is
// generated independently of the FTP scan.
func truthHTTP(world *worldgen.World) func(*analysis.Record) (analysis.HTTPInfo, bool) {
	return func(r *analysis.Record) (analysis.HTTPInfo, bool) {
		ip, ok := r.IPNum()
		if !ok {
			return analysis.HTTPInfo{}, false
		}
		truth, ok := world.Truth(ip)
		if !ok || !truth.FTP {
			return analysis.HTTPInfo{}, false
		}
		return analysis.HTTPInfo{HTTP: truth.HTTP, Scripting: truth.Scripting}, true
	}
}

// Tables bundles every computed experiment.
type Tables struct {
	Funnel           analysis.Funnel
	Classification   analysis.Classification
	ASConcentration  analysis.ASConcentration
	Devices          analysis.DeviceBreakdown
	TopASes          []analysis.TopAS
	Exposure         analysis.Exposure
	ExposureByDevice analysis.ExposureByDevice
	CVEs             analysis.CVEExposure
	Malicious        analysis.Malicious
	PortBounce       analysis.PortBounce
	FTPS             analysis.FTPS

	// Unexpected is the identification ledger: endpoints the staged
	// funnel shed before enumeration, by sniffed protocol. Always empty
	// on two-stage runs. It lives outside Render's paper tables so those
	// bytes never change; RenderFull appends it when populated.
	Unexpected analysis.UnexpectedServices
}

// Snapshot returns a view of the aggregate state this run folded (see
// analysis.Aggregator.Snapshot). Nil for a zero Result that never ran a
// pipeline.
func (r *Result) Snapshot() *analysis.Snapshot {
	if r.agg == nil {
		return nil
	}
	return r.agg.Snapshot()
}

// ComputeTables produces every analysis table: a thin finalize over the
// accumulators the pipeline already folded — no record is touched again,
// which is what lets the census drop each one as soon as it is folded.
func (r *Result) ComputeTables() Tables {
	agg := r.agg
	return Tables{
		Funnel:           agg.Funnel(r.scanned),
		Classification:   agg.Classification(),
		ASConcentration:  agg.ASConcentration(),
		Devices:          agg.Devices(),
		TopASes:          agg.TopASes(10),
		Exposure:         agg.Exposure(),
		ExposureByDevice: agg.ExposureByDevice(),
		CVEs:             agg.CVEs(),
		Malicious:        agg.Malicious(),
		PortBounce:       agg.PortBounce(),
		FTPS:             agg.FTPS(10),
		Unexpected:       agg.Unexpected(),
	}
}

// HoneypotStudyConfig sizes a §VIII run. The defaults reproduce the paper's
// posture (8 webroot-style honeypots, 457 attackers, one bot-per-target
// visit each); the fleet knobs scale it to the Honeybuckets shape — hundreds
// of differentiated honeypots, millions of streamed sessions.
type HoneypotStudyConfig struct {
	Seed         uint64
	Honeypots    int     // paper: 8
	Attackers    int     // paper: 457 unique IPs
	Concentrated float64 // share of attackers from one network (paper: ~0.30)
	// Sessions, when positive, is the attacker campaign's session budget;
	// zero means one visit per bot-target pair.
	Sessions int64
	// Concurrency caps in-flight attacker sessions; zero means the fleet
	// default (32).
	Concurrency int
	// LureMix weights the honeypots' bait postures; the zero value means
	// honeypot.DefaultLureMix.
	LureMix honeypot.LureMix
	// Events, when non-nil, persists every honeypot event as JSONL.
	Events *honeypot.EventStream
	// Now is the study clock (deploy stamps, event times, fleet elapsed);
	// nil means time.Now. Injecting honeypot.SimClock makes timelines
	// reproducible run to run.
	Now func() time.Time
	// Metrics, when non-nil, wires the study into one registry: network
	// counters (simnet.*), honeypot fold counters (honeypot.*), and
	// attacker fleet progress (attacker.*).
	Metrics *obs.Registry
}

// HoneypotStudy deploys a differentiated honeypot fleet on a fresh network,
// runs the attacker fleet, and finalizes the streamed report. No event is
// buffered: every session folds into the streaming accumulator as it
// happens, so live memory is bounded by the population, not the session
// count.
func HoneypotStudy(ctx context.Context, cfg HoneypotStudyConfig) (honeypot.Report, error) {
	if cfg.Honeypots <= 0 {
		cfg.Honeypots = 8
	}
	if cfg.Attackers <= 0 {
		cfg.Attackers = 457
	}
	if cfg.Concentrated == 0 {
		cfg.Concentrated = 0.30
	}
	provider := simnet.NewStaticProvider()
	acc := honeypot.NewAccumulator()
	dep, err := honeypot.DeployFleet(provider, honeypot.FleetConfig{
		Base:    HoneypotBase,
		Count:   cfg.Honeypots,
		Seed:    cfg.Seed,
		Mix:     cfg.LureMix,
		Acc:     acc,
		Events:  cfg.Events,
		Now:     cfg.Now,
		Metrics: cfg.Metrics,
	})
	if err != nil {
		return honeypot.Report{}, err
	}
	nw := simnet.NewNetwork(provider)
	if cfg.Metrics != nil {
		nw.BindMetrics(cfg.Metrics)
	}
	fleet := &attacker.Fleet{
		Network:      nw,
		Bots:         attacker.DefaultMix(cfg.Attackers, cfg.Seed, cfg.Concentrated),
		Targets:      dep.IPs,
		BounceTarget: ftp.HostPort{IP: [4]byte{203, 0, 113, 66}, Port: 9999},
		Concurrency:  cfg.Concurrency,
		Sessions:     cfg.Sessions,
		Now:          cfg.Now,
		Metrics:      cfg.Metrics,
	}
	stats := fleet.Run(ctx)
	// Fleet.Run returning means every attacker hung up, not that every
	// server goroutine finished folding its teardown events. Wait for a
	// disconnect per dialed session before freezing the report (and before
	// the caller closes any -events-out stream) — on a bounded context so
	// even a deadline-truncated run drains its tail.
	qctx, qcancel := context.WithTimeout(context.Background(), 10*time.Second)
	acc.Quiesce(qctx, uint64(stats.Sessions))
	qcancel()
	return acc.Report(), nil
}
