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
	// stage; shard i binds its identify workers starting at IdentifyBase +
	// i*shardSourceStride. The block sits above the honeypot range so it
	// can never collide with enumerator sources or deployed listeners.
	IdentifyBase = simnet.MustParseIP("250.2.0.1")
)

// CensusConfig sizes a census run.
type CensusConfig struct {
	// Seed derandomizes the world and the scan order.
	Seed uint64
	// Scale divides the paper's full-Internet population (see worldgen).
	Scale int
	// ScanWorkers / EnumWorkers set stage parallelism.
	ScanWorkers int
	EnumWorkers int
	// ScanRate caps discovery probes per second across all shards (the
	// paper's ZMap rate knob); 0 means unthrottled. Pacing changes when
	// hosts are observed, never what is observed, so it is not part of
	// the checkpoint's config digest.
	ScanRate int
	// Retries resends discovery probes to absorb simulated loss.
	Retries int
	// LossRate injects deterministic probe loss.
	LossRate float64
	// PortProbe enables the PORT-validation test (on by default in
	// Run; disable for ablations).
	DisablePortProbe bool
	// DisableTLS skips certificate collection.
	DisableTLS bool
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

	// RetainRecords chooses what Run keeps after folding each record
	// into the analysis accumulators. The zero value (RetainAll) is the
	// legacy buffered mode.
	RetainRecords Retention
	// StreamTo, when non-nil, receives every record the moment its
	// enumeration finishes — ahead of the analysis accumulators in the
	// sink chain. Run closes it when the census ends. Combine with
	// RetainNone and a dataset.WriterSink for constant-memory
	// persistence.
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

	// Checkpoint, when non-nil, makes the census resumable: caller
	// cancellation halts the scanners at a batch boundary and drains
	// everything in flight before the run returns, and the policy's Write
	// receives a checkpoint snapshot on truncation (and periodically at
	// quiescent points when Every is set). See CheckpointPolicy.
	Checkpoint *CheckpointPolicy
	// Resume, when non-nil, continues a census from the checkpoint a
	// previous run wrote: the scanners seek to the saved cursors, the
	// saved aggregate and robustness ledger merge into the result, and —
	// when the caller appends to the same JSONL ledger — the finished
	// series is byte-identical to an uninterrupted run. The snapshot must
	// carry checkpoint state matching this configuration (same seed,
	// epoch, scale, shard count, and measurement knobs) or Run fails with
	// ErrCheckpointMismatch. In RetainAll mode only the resumed portion's
	// records are retained; resume is built for streaming runs.
	Resume *analysis.Snapshot
}

// Retention selects the census memory model.
type Retention int

const (
	// RetainAll keeps every HostRecord: Result.Records and the legacy
	// analysis Input are populated. The default.
	RetainAll Retention = iota
	// RetainNone streams: each record is folded into the analysis
	// accumulators (and StreamTo) as it arrives and then dropped, so
	// peak memory is the aggregate state, not the dataset — listings
	// never accumulate. Result.Records and Result.Input stay nil.
	RetainNone
)

// Truncation classes recorded in Result.TruncatedBy (and folded into
// Robustness.Failures) when a run is cut short by its caller.
const (
	// TruncateDeadline marks a run cut by context deadline expiry.
	TruncateDeadline = "deadline"
	// TruncateCanceled marks a run cut by explicit cancellation.
	TruncateCanceled = "canceled"
)

// Robustness sums the per-record fault and degradation counters.
type Robustness struct {
	// Records counts the records folded into these counters. A record is
	// counted only after the sink chain accepts it, so Records always
	// equals Result.Observed — the two ledgers cannot disagree even when
	// a sink fails mid-stream.
	Records int
	// Partial counts records flagged incomplete by the degradation
	// layer; Failures breaks them (and outright failures) down by class.
	Partial int
	// Terminated counts control connections that ended early — server
	// request limits and transport faults both land here.
	Terminated int
	// Truncated counts listings cut by the request cap.
	Truncated int
	// SkippedDirs, Retries, and DataBytes sum the per-record counters.
	SkippedDirs int
	Retries     int
	DataBytes   int64
	Failures    map[string]int
}

// Merge folds another robustness ledger into this one — the shard-merge
// counterpart of observe.
func (r *Robustness) Merge(o Robustness) {
	r.Records += o.Records
	r.Partial += o.Partial
	r.Terminated += o.Terminated
	r.Truncated += o.Truncated
	r.SkippedDirs += o.SkippedDirs
	r.Retries += o.Retries
	r.DataBytes += o.DataBytes
	if len(o.Failures) == 0 {
		return
	}
	if r.Failures == nil {
		r.Failures = make(map[string]int, len(o.Failures))
	}
	for class, n := range o.Failures {
		r.Failures[class] += n
	}
}

// observe folds one record in. Called only from the census drain
// goroutine, so no locking is needed.
func (r *Robustness) observe(rec *dataset.HostRecord) {
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
			r.Failures = make(map[string]int)
		}
		r.Failures[rec.FailureClass]++
	}
}

// Census is a ready-to-run measurement pipeline over one world.
type Census struct {
	Config  CensusConfig
	World   *worldgen.World
	Network *simnet.Network
}

// NewCensus synthesizes the world and network.
func NewCensus(cfg CensusConfig) (*Census, error) {
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

// Result is a completed census.
type Result struct {
	// Input and Records are populated only in RetainAll mode; in
	// streaming mode the records were folded into the accumulators and
	// released.
	Input   *analysis.Input
	Records []*dataset.HostRecord

	// Observed counts the records that flowed through the sink chain —
	// equal to len(Records) in retained mode, and the only cardinality
	// available in streaming mode.
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
	// record drained before the cut — a scan stopped at its deadline is
	// a usable (truncated) dataset, not a failure. TruncatedBy names the
	// cause: TruncateDeadline or TruncateCanceled.
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
// accumulators, then — in RetainAll mode only — an in-memory collector.
// The HTTP (Censys-equivalent) join is resolved per record inside that
// pass, so the join is always consistent with the records that actually
// flowed, even when the run is cancelled mid-flight.
//
// Run drives a single pipeline; ShardedCensus fans the same pipeline out
// over strided permutation shards and merges the partial aggregates. Both
// are runN, which also hosts the checkpoint/resume machinery (see
// checkpoint.go).
func (c *Census) Run(ctx context.Context) (*Result, error) {
	return c.runN(ctx, 1)
}

// newCollector builds the PORT-validation collector unless disabled. The
// returned closer is a no-op when there is nothing to close.
func (c *Census) newCollector() (enumerator.Collector, func(), error) {
	if c.Config.DisablePortProbe {
		return nil, func() {}, nil
	}
	sim, err := enumerator.NewSimCollector(c.Network, CollectorIP, 3100)
	if err != nil {
		return nil, nil, fmt.Errorf("core: collector: %w", err)
	}
	return sim, func() { sim.Close() }, nil
}

// shardSpec parameterizes one census pipeline over the shared world: its
// stride of the permutation, its source-address block, and the resources
// shared with sibling shards (the collector and the merged stream) that
// the pipeline must use but not own.
type shardSpec struct {
	index, total int
	sourceBase   simnet.IP
	// identifySource is the first source address of this shard's
	// identification workers (unused when identification is off).
	identifySource simnet.IP
	collector      enumerator.Collector
	// stream receives every record ahead of the aggregator; the pipeline
	// wraps it KeepOpen so the run's owner closes it exactly once.
	stream dataset.Sink
	// prefix namespaces the pipeline's registry counters ("shard3.");
	// prefixed counters also feed the unprefixed merged view.
	prefix string
	// startCursor resumes this shard's permutation walk at the saved
	// checkpoint position (group steps); zero starts from the beginning.
	startCursor uint64
}

// shardOutcome is one pipeline's partial census: the aggregate, the
// robustness ledger, retained records, timings, and any errors.
type shardOutcome struct {
	agg       *analysis.Aggregator
	robust    Robustness
	records   []*dataset.HostRecord
	join      map[string]analysis.HTTPInfo
	scanDur   time.Duration
	probed    uint64
	responded uint64
	setupErr  error
	sinkErr   error
	closeErr  error
	scanErr   error
}

// runShard executes one discovery+enumeration pipeline over the spec's
// slice of the scan. A sink failure cancels the whole run (all shards share
// the cancel); every other error is recorded in the outcome for assemble to
// order by the established precedence. The shard publishes its live pieces
// through rt for the checkpoint coordinator (see checkpoint.go).
func (c *Census) runShard(ctx context.Context, cancel context.CancelFunc, start time.Time, spec shardSpec, rt *shardRuntime) *shardOutcome {
	o := &shardOutcome{}
	scanner, err := zmap.NewScanner(zmap.Config{
		Network:       c.Network,
		Base:          c.World.ScanBase,
		Size:          c.World.ScanSize,
		Port:          21,
		Seed:          c.Config.Seed,
		Workers:       c.Config.ScanWorkers,
		RatePerSec:    c.Config.ScanRate,
		Retries:       c.Config.Retries,
		Shard:         spec.index,
		TotalShards:   spec.total,
		StartCursor:   spec.startCursor,
		Metrics:       c.Config.Metrics,
		MetricsPrefix: spec.prefix,
	})
	if err != nil {
		o.setupErr = fmt.Errorf("core: scanner: %w", err)
		close(rt.ready)
		return o
	}

	enumTimeout := c.Config.EnumTimeout
	if enumTimeout == 0 {
		enumTimeout = 15 * time.Second
	}
	fleet := &enumerator.Fleet{
		Cfg: enumerator.Config{
			Collector:  spec.collector,
			RequestCap: c.Config.RequestCap,
			TryTLS:     !c.Config.DisableTLS,
			Timeout:    enumTimeout,
			Retry:      c.Config.EnumRetry,
			HostBudget: c.Config.HostBudget,
			ByteBudget: c.Config.ByteBudget,
			Now:        c.Config.Now,
		},
		Network:    c.Network,
		SourceBase: spec.sourceBase,
		Workers:    c.Config.EnumWorkers,
		Metrics:    c.Config.Metrics,
	}

	// The sink chain. The aggregator resolves each record's HTTP join
	// through a per-record truth lookup — replacing the old post-hoc
	// join over a `discovered` slice that could be left inconsistent
	// with in-flight records on cancellation. In retained mode the same
	// hook also materializes the legacy Input.HTTP map as a side effect,
	// so the map covers exactly the records that flowed.
	retained := c.Config.RetainRecords == RetainAll
	var join map[string]analysis.HTTPInfo
	if retained {
		join = make(map[string]analysis.HTTPInfo)
	}
	world := c.World
	httpHook := func(r *analysis.Record) (analysis.HTTPInfo, bool) {
		ip, ok := r.IPNum()
		if !ok {
			return analysis.HTTPInfo{}, false
		}
		truth, ok := world.Truth(ip)
		if !ok || !truth.FTP {
			return analysis.HTTPInfo{}, false
		}
		info := analysis.HTTPInfo{HTTP: truth.HTTP, Scripting: truth.Scripting}
		if join != nil {
			join[r.Host.IP] = info
		}
		return info, true
	}
	agg := analysis.NewAggregator(c.World.ASDB, httpHook)
	sinks := make([]dataset.Sink, 0, 3)
	if spec.stream != nil {
		sinks = append(sinks, dataset.KeepOpen(spec.stream))
	}
	sinks = append(sinks, agg)
	var coll *dataset.Collector
	if retained {
		coll = &dataset.Collector{}
		sinks = append(sinks, coll)
	}
	sink := dataset.Tee(sinks...)

	// Publish the shard's live pieces for the checkpoint coordinator, then
	// signal readiness: from here on the halt watcher can stop the scanner
	// and the quiescence loop can read its accounting.
	var robust Robustness
	rt.scanner = scanner
	rt.agg = agg
	rt.robust = &robust
	close(rt.ready)

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
	go func() {
		defer close(intake)
		for batch := range found {
			for _, r := range batch {
				select {
				case intake <- r.IP:
				case <-ctx.Done():
					// Drain so the scanner can finish closing.
					for range found {
					}
					return
				}
			}
		}
	}()
	// The single drain goroutine feeds the sink chain, honoring the Sink
	// contract (one Observe at a time). A sink failure cancels the
	// pipeline but keeps draining so the fleet can shut down. Robustness
	// is folded only after the whole chain accepts a record, so its
	// totals always agree with the aggregator's Observed count.
	mets := newCensusMetrics(c.Config.Metrics, spec.prefix)
	drained := make(chan error, 1)
	go func() {
		var sinkErr error
		for rec := range out {
			mets.drained.Inc()
			if sinkErr != nil {
				continue
			}
			if err := sink.Observe(rec); err != nil {
				sinkErr = err
				mets.sinkErrors.Inc()
				rt.sinkFailed.Store(true)
				cancel()
				continue
			}
			robust.observe(rec)
			// The accepted count is the quiescence watermark: it is
			// bumped only after the whole chain (and the robustness
			// fold) has the record, so a coordinator that sees
			// emitted − dead − accepted == 0 also sees every fold.
			rt.accepted.Add(1)
			mets.record(rec)
		}
		drained <- sinkErr
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
			Network:       c.Network,
			SourceBase:    spec.identifySource,
			Workers:       c.Config.IdentifyWorkers,
			Metrics:       c.Config.Metrics,
			MetricsPrefix: spec.prefix,
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
	o.closeErr = sink.Close()
	o.scanErr = <-scanErr

	o.agg = agg
	o.robust = robust
	o.probed = scanner.Stats.Probed.Load()
	o.responded = scanner.Stats.Responded.Load()
	if retained {
		o.records = coll.Records
		o.join = join
	}
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

// assemble merges shard outcomes into one Result, ordering errors by the
// established precedence and flagging graceful truncation. With a single
// outcome it reduces to the unsharded epilogue.
func (c *Census) assemble(ctx context.Context, start time.Time, outcomes []*shardOutcome, streamErr error) (*Result, error) {
	for _, o := range outcomes {
		if o.setupErr != nil {
			return nil, o.setupErr
		}
	}

	// Fold every shard into the first, in shard order. Ordering is for
	// reproducibility of Result.Records only — the aggregates themselves
	// are additive, so any merge order finalizes identically.
	base := outcomes[0]
	agg := base.agg
	robust := base.robust
	result := &Result{
		ScanDuration: base.scanDur,
		Probed:       base.probed,
		Responded:    base.responded,
		agg:          agg,
		scanned:      c.World.ScanSize,
	}
	records := base.records
	join := base.join
	for _, o := range outcomes[1:] {
		agg.Merge(o.agg)
		robust.Merge(o.robust)
		result.Probed += o.probed
		result.Responded += o.responded
		if o.scanDur > result.ScanDuration {
			result.ScanDuration = o.scanDur
		}
		records = append(records, o.records...)
		for ip, info := range o.join {
			join[ip] = info
		}
	}
	// A resumed run folds the previous run's checkpoint in last: the saved
	// aggregate merges like one more shard (additive, order-independent),
	// the robustness ledger sums, and the discovery counters extend — so
	// the finished result is what an uninterrupted run would have produced.
	if r := c.Config.Resume; r != nil && r.Checkpoint != nil {
		agg.MergeSnapshot(r)
		robust.Merge(robustFromState(r.Checkpoint.Robustness))
		result.Probed += r.Checkpoint.Probed
		result.Responded += r.Checkpoint.Responded
	}
	result.Observed = agg.Observed()
	result.Robustness = robust
	result.EnumDuration = time.Since(start)
	if c.Config.RetainRecords == RetainAll {
		result.Records = records
		result.Input = &analysis.Input{
			IPsScanned: c.World.ScanSize,
			Records:    records,
			ASDB:       c.World.ASDB,
			HTTP:       join,
		}
	}

	// Error precedence: a broken sink is fatal (the dataset is suspect)
	// but the partial result still rides along for inspection; a scanner
	// failure other than cancellation is fatal outright.
	for _, o := range outcomes {
		if o.sinkErr != nil {
			return result, fmt.Errorf("core: record sink: %w", o.sinkErr)
		}
	}
	for _, o := range outcomes {
		if o.closeErr != nil {
			return result, fmt.Errorf("core: closing record sink: %w", o.closeErr)
		}
	}
	if streamErr != nil {
		return result, fmt.Errorf("core: closing record sink: %w", streamErr)
	}
	for _, o := range outcomes {
		if o.scanErr != nil && !isContextErr(o.scanErr) {
			return nil, fmt.Errorf("core: discovery scan: %w", o.scanErr)
		}
	}

	// Caller cancellation is graceful truncation, not failure: everything
	// drained before the cut is a usable dataset — the paper's days-long
	// measurement had to survive exactly this. All shards share the run
	// context, so a deadline truncates them together; each one's partial
	// records are already folded in, and the cause is recorded once.
	if err := ctx.Err(); err != nil {
		result.Truncated = true
		result.TruncatedBy = TruncateCanceled
		if err == context.DeadlineExceeded {
			result.TruncatedBy = TruncateDeadline
		}
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

// newCensusMetrics binds the drain counters, namespaced by prefix for
// sharded pipelines (prefixed counters feed the merged unprefixed view).
// Failure-class counters stay global: progress reads classes, not shards.
func newCensusMetrics(reg *obs.Registry, prefix string) *censusMetrics {
	return &censusMetrics{
		reg:        reg,
		drained:    reg.ChildCounter(prefix, "census.drained"),
		observed:   reg.ChildCounter(prefix, "census.observed"),
		partial:    reg.ChildCounter(prefix, "census.partial"),
		terminated: reg.ChildCounter(prefix, "census.terminated"),
		sinkErrors: reg.ChildCounter(prefix, "census.sink_errors"),
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

// HTTPJoin plays the role of the paper's Censys HTTP dataset: an external
// scan of the same address space reporting web servers and their scripting
// headers. In the simulation the web-scan ground truth comes from the world
// generator, exactly as Censys is generated independently of the FTP scan.
func (c *Census) HTTPJoin(records []*dataset.HostRecord) map[string]analysis.HTTPInfo {
	ips := make([]simnet.IP, 0, len(records))
	for _, rec := range records {
		if !rec.FTP {
			continue
		}
		ip, err := simnet.ParseIP(rec.IP)
		if err != nil {
			continue
		}
		ips = append(ips, ip)
	}
	return c.httpJoinIPs(ips)
}

// httpJoinIPs builds the join from numeric addresses. The census pipeline
// feeds it the discovery results directly, so host IPs never round-trip
// through their string form on this path.
func (c *Census) httpJoinIPs(ips []simnet.IP) map[string]analysis.HTTPInfo {
	join := make(map[string]analysis.HTTPInfo, len(ips))
	for _, ip := range ips {
		truth, ok := c.World.Truth(ip)
		if !ok || !truth.FTP {
			continue
		}
		join[ip.String()] = analysis.HTTPInfo{HTTP: truth.HTTP, Scripting: truth.Scripting}
	}
	return join
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

// Snapshot returns the serializable aggregate state this run folded — the
// mergeable/checkpoint form of the census (see analysis.Snapshot). Nil for
// hand-built results that never ran a pipeline.
func (r *Result) Snapshot() *analysis.Snapshot {
	if r.agg == nil {
		return nil
	}
	return r.agg.Snapshot()
}

// ComputeTables produces every analysis table. After a census run this is
// a thin finalize over the accumulators the pipeline already folded — no
// record is touched again, which is what lets streaming mode drop them.
// For hand-built Results (an Input loaded from disk, say) it folds the
// retained records through a fresh aggregator first, fanning the per-record
// derivation across CPUs.
func (r *Result) ComputeTables() Tables {
	agg := r.agg
	scanned := r.scanned
	if agg == nil {
		agg = analysis.AggregateInput(r.Input)
		scanned = r.Input.IPsScanned
	}
	return Tables{
		Funnel:           agg.Funnel(scanned),
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
