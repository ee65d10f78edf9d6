// Command ftpcensus runs the full measurement pipeline — world synthesis,
// ZMap-style discovery, enumeration, analysis — and prints every table and
// figure from the paper's evaluation.
//
// Usage:
//
//	ftpcensus -seed 42 -scale 2048 -out census.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/asdb"
	"ftpcloud/internal/core"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/notify"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/report"
	"ftpcloud/internal/worldgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ftpcensus: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ftpcensus", flag.ExitOnError)
	var (
		seed     = fs.Uint64("seed", 42, "world and scan-order seed")
		scale    = fs.Int("scale", 2048, "divisor of the paper's full-Internet population")
		epoch    = fs.Uint64("epoch", 0, "world epoch: later epochs churn hosts, upgrade versions, and reallocate tail ASes deterministically")
		workers  = fs.Int("workers", 64, "concurrent enumeration connections")
		retries  = fs.Int("retries", 2, "discovery probe retries")
		rate     = fs.Int("rate", 0, "cap discovery probes per second (0 = unthrottled)")
		loss     = fs.Float64("loss", 0.02, "simulated probe loss rate")
		out      = fs.String("out", "", "write the per-host dataset (JSONL) to this file")
		notifyTo = fs.String("notify", "", "write per-AS disclosure notices, built from the -out ledger, to this file")
		csvTo    = fs.String("figure1-csv", "", "write Figure 1's CDF series (CSV) to this file")
		quiet    = fs.Bool("quiet", false, "suppress the table report")
		timeout  = fs.Duration("timeout", 30*time.Minute, "overall run deadline")

		checkpointTo = fs.String("checkpoint", "",
			"write a resumable checkpoint, a position in the -out ledger, to this file on truncation (and periodically); removed after a clean finish")
		checkpointEvery = fs.Duration("checkpoint-every", 30*time.Second,
			"periodic checkpoint interval when -checkpoint is set (0 = truncation-only)")
		resumeFrom = fs.String("resume", "",
			"resume a truncated census from this checkpoint file; the -out ledger is trimmed to the checkpoint, re-folded and appended to")

		serviceMix = fs.String("service-mix", "",
			"put non-FTP services on port 21: \"default\" or weights like http=4,tls=2,ssh=2,telnet=1,garbage=2,silent=1 (empty = off)")
		identifyOn = fs.Bool("identify", false,
			"insert the LZR-style identification stage: fingerprint each discovered endpoint and shed non-FTP services before enumeration")
		identifyWait = fs.Duration("identify-wait", 0,
			"identification banner wait before sending the trigger (0 = default 2s)")
		identifyWorkers = fs.Int("identify-workers", 0,
			"identification worker count (0 = default 32)")

		hostile = fs.Float64("hostile", 0,
			"fraction of FTP hosts given a hostile fault personality")
		faultMix = fs.String("fault-mix", "",
			"hostile class weights, e.g. latency=1,drip=2,rst=1,stall=1,garbage=1,eof=1")
		enumTimeout = fs.Duration("enum-timeout", 0,
			"per-operation enumerator timeout (0 = default 15s)")
		enumRetries = fs.Int("enum-retries", 0,
			"enumerator transport retry attempts (0 = default)")
		hostBudget = fs.Duration("host-budget", 0,
			"wall-clock budget per enumerated host (0 = default 2m, negative = off)")
		byteBudget = fs.Int64("byte-budget", 0,
			"data-channel byte budget per host (0 = default 64MiB, negative = off)")

		progress = fs.Duration("progress", 0,
			"emit a progress line to stderr at this interval (0 = off)")
		debugAddr = fs.String("debug-addr", "",
			"serve /debug/pprof, /debug/vars and /metrics on this address")
		metricsOut = fs.String("metrics-out", "",
			"write the final metrics snapshot (JSON) to this file")
	)
	fs.Parse(args)

	// A scale below 1 divides the population by nothing meaningful; the
	// library would quietly substitute its default and run a census far
	// larger than the one asked for.
	if *scale < 1 {
		return fmt.Errorf("-scale %d out of range: must be at least 1", *scale)
	}
	// Notices are built from the finished ledger, so they need one.
	if *notifyTo != "" && *out == "" {
		return fmt.Errorf("-notify needs -out: notices are built from the JSONL ledger")
	}
	// A checkpoint counts records of the ledger, and a resume re-folds them.
	if (*checkpointTo != "" || *resumeFrom != "") && *out == "" {
		return fmt.Errorf("-checkpoint and -resume need -out: a checkpoint is a position in the JSONL ledger")
	}

	mix, err := worldgen.ParseFaultMix(*faultMix)
	if err != nil {
		return err
	}

	// The empty flag keeps the benign world bit-identical to pre-service
	// seeds; "default" opts into the LZR-shaped mix without spelling it out.
	var svcMix worldgen.ServiceMix
	if *serviceMix != "" {
		if *serviceMix == "default" {
			svcMix = worldgen.DefaultServiceMix()
		} else if svcMix, err = worldgen.ParseServiceMix(*serviceMix); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	reg := obs.NewRegistry()

	// A resumed run re-folds the interrupted ledger up to the checkpoint,
	// takes the checkpoint's cursor, and continues the ledger in place. It
	// keeps checkpointing to the same file unless told otherwise, so a
	// second kill resumes from the later position and a clean finish
	// removes the consumed file.
	var resume *core.Resume
	if *resumeFrom != "" {
		cp, err := readCheckpoint(*resumeFrom)
		if err != nil {
			return err
		}
		if *checkpointTo == "" {
			*checkpointTo = *resumeFrom
		}
		fmt.Fprintf(os.Stderr, "ftpcensus: resuming from %s (%d records already streamed, %d hosts in flight)\n",
			*resumeFrom, cp.Streamed, len(cp.Pending))
		resume = &core.Resume{Checkpoint: cp}
	}

	// The dataset is persisted by streaming each record into the JSONL
	// file as its enumeration finishes, so listings never pile up in
	// memory. A resume appends to the interrupted ledger after trimming it to
	// exactly the records the checkpoint accounts for, so the finished
	// file carries no duplicates and no post-checkpoint stragglers.
	var streamSink *dataset.WriterSink
	var streamTo dataset.Sink
	ran := false
	if resume != nil {
		prefix, f, err := openLedgerForResume(*out, resume.Checkpoint.Streamed)
		if err != nil {
			return err
		}
		defer prefix.Close()
		resume.Ledger = prefix
		streamSink = dataset.NewWriterSink(f)
		streamTo = streamSink
		defer func() {
			if !ran {
				streamSink.Close()
			}
		}()
	} else if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		streamSink = dataset.NewWriterSink(f)
		streamTo = streamSink
		// Until Run takes ownership of the sink chain, every early-error
		// return must flush/close the handle and clear the empty file it
		// would otherwise leave behind.
		defer func() {
			if ran {
				return
			}
			streamSink.Close()
			if streamSink.Count() == 0 {
				os.Remove(*out)
			}
		}()
	}

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, "ftpcensus", reg)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "ftpcensus: debug endpoints at http://%s/debug/pprof/ and /debug/vars\n", dbg.Addr())
	}
	if *metricsOut != "" {
		// Snapshot on every exit path — a truncated or failed run still
		// leaves its metrics behind for postmortem.
		defer func() {
			if err := writeSnapshot(reg, *metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "ftpcensus: metrics snapshot: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "ftpcensus: wrote metrics snapshot to %s\n", *metricsOut)
			}
		}()
	}

	var policy *core.CheckpointPolicy
	if *checkpointTo != "" {
		policy = &core.CheckpointPolicy{
			Every: *checkpointEvery,
			Write: func(snap *analysis.Snapshot) error {
				return writeCheckpointAtomic(snap, *checkpointTo)
			},
		}
	}

	census, err := core.NewCensus(core.CensusConfig{
		Seed:            *seed,
		Scale:           *scale,
		Epoch:           *epoch,
		EnumWorkers:     *workers,
		Retries:         *retries,
		ScanRate:        *rate,
		LossRate:        *loss,
		Checkpoint:      policy,
		Resume:          resume,
		StreamTo:        streamTo,
		ServiceMix:      svcMix,
		Identify:        *identifyOn,
		IdentifyWait:    *identifyWait,
		IdentifyWorkers: *identifyWorkers,
		HostileRate:     *hostile,
		FaultMix:        mix,
		EnumTimeout:     *enumTimeout,
		EnumRetry:       enumerator.RetryPolicy{Attempts: *enumRetries},
		HostBudget:      *hostBudget,
		ByteBudget:      *byteBudget,
		Metrics:         reg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ftpcensus: scanning %d addresses (scale 1:%d, seed %d)\n",
		census.World.ScanSize, *scale, *seed)

	if *progress > 0 {
		rep := &obs.Reporter{Registry: reg, Interval: *progress, Format: censusProgress}
		stop := rep.Start(ctx)
		defer stop()
	}

	ran = true // Run owns the sink chain from here: it flushes and closes it.
	result, err := census.Run(ctx)
	if err != nil {
		return err
	}
	if result.Truncated {
		fmt.Fprintf(os.Stderr,
			"ftpcensus: *** TRUNCATED at %s — partial results below (%d records enumerated) ***\n",
			result.TruncatedBy, result.Observed)
	}
	if *checkpointTo != "" {
		if result.Truncated {
			fmt.Fprintf(os.Stderr, "ftpcensus: checkpoint written to %s — continue with -resume %s\n",
				*checkpointTo, *checkpointTo)
		} else if os.Remove(*checkpointTo) == nil {
			// A clean finish needs no resume point; leaving a stale
			// periodic checkpoint behind would invite resuming a
			// completed census.
			fmt.Fprintf(os.Stderr, "ftpcensus: clean finish — removed checkpoint %s\n", *checkpointTo)
		}
	}
	fmt.Fprintf(os.Stderr, "ftpcensus: discovery %v (%d probed, %d responsive); enumeration %v (%d records)\n",
		result.ScanDuration.Round(time.Millisecond), result.Probed, result.Responded,
		result.EnumDuration.Round(time.Millisecond), result.Observed)

	if *identifyOn {
		snap := reg.Snapshot()
		fmt.Fprintf(os.Stderr, "ftpcensus: identification: %d dials, %d passed to enumeration, %d shed, %d errors\n",
			snap.Counters["identify.dials"], snap.Counters["identify.passed"],
			snap.Counters["identify.shed"], snap.Counters["identify.errors"])
	}

	if r := result.Robustness; r.Partial > 0 || len(r.Failures) > 0 || *hostile > 0 {
		fmt.Fprintf(os.Stderr,
			"ftpcensus: robustness: %d partial, %d terminated, %d truncated, %d dirs skipped, %d retries\n",
			r.Partial, r.Terminated, r.Truncated, r.SkippedDirs, r.Retries)
		if len(r.Failures) > 0 {
			classes := make([]string, 0, len(r.Failures))
			for c := range r.Failures {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			parts := make([]string, 0, len(classes))
			for _, c := range classes {
				parts = append(parts, fmt.Sprintf("%s=%d", c, r.Failures[c]))
			}
			fmt.Fprintf(os.Stderr, "ftpcensus: failure classes: %s\n", strings.Join(parts, " "))
		}
	}

	if streamSink != nil {
		// Run already flushed and closed the sink chain.
		fmt.Fprintf(os.Stderr, "ftpcensus: streamed %d records to %s\n", streamSink.Count(), *out)
	}

	if *notifyTo != "" {
		n, err := writeNotices(*out, *notifyTo, census.World.ASDB)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ftpcensus: wrote %d notices to %s\n", n, *notifyTo)
	}

	tables := result.ComputeTables()

	if *csvTo != "" {
		if err := os.WriteFile(*csvTo, []byte(report.Figure1CSV(tables.ASConcentration)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ftpcensus: wrote Figure 1 series to %s\n", *csvTo)
	}

	if !*quiet {
		if result.Truncated {
			fmt.Printf("*** TRUNCATED at %s — partial ledger (%d records) ***\n\n",
				result.TruncatedBy, result.Observed)
		}
		// RenderFull is Render plus the unexpected-services ledger; on runs
		// without an identification stage the bytes are identical.
		fmt.Println(tables.RenderFull())
	}
	return nil
}

// censusProgress renders one progress line tuned to the census pipeline:
// probe rate, discovery yield, enumeration throughput, admitted hosts
// (inflight, parked ones included) and those parked in a retry backoff
// without a connection slot (backoff), and any failure classes that moved
// during the interval.
func censusProgress(w io.Writer, delta, cur obs.Snapshot, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	fmt.Fprintf(w, "progress: probed=%d (%.0f/s) responded=%d enumerated=%d (%.1f/s) inflight=%d backoff=%d",
		cur.Counters["zmap.probed"], float64(delta.Counters["zmap.probed"])/secs,
		cur.Counters["zmap.responded"],
		cur.Counters["census.observed"], float64(delta.Counters["census.observed"])/secs,
		cur.Gauges["enum.inflight"], cur.Gauges["enum.backoff"])

	// With the identification stage active, show the funnel's midsection:
	// how fast endpoints are being fingerprinted and how many were shed
	// before burning an enumeration slot.
	if cur.Counters["identify.dials"] > 0 {
		fmt.Fprintf(w, " identified=%d (%.1f/s) shed=%d",
			cur.Counters["identify.dials"], float64(delta.Counters["identify.dials"])/secs,
			cur.Counters["identify.shed"])
	}

	var classes []string
	for name := range delta.Counters {
		if strings.HasPrefix(name, "census.failure.") && delta.Counters[name] > 0 {
			classes = append(classes, name)
		}
	}
	if len(classes) > 0 {
		sort.Strings(classes)
		parts := make([]string, 0, len(classes))
		for _, name := range classes {
			parts = append(parts, fmt.Sprintf("%s=+%d",
				strings.TrimPrefix(name, "census.failure."), delta.Counters[name]))
		}
		fmt.Fprintf(w, " failures: %s", strings.Join(parts, " "))
	}
	fmt.Fprintln(w)
}

// writeNotices builds the per-AS disclosure notices from the finished JSONL
// ledger and writes them to path, returning how many it wrote. Reading the
// ledger back, rather than the records of this process, covers a resumed
// census whole: the ledger holds the records streamed before the cut too.
func writeNotices(ledger, path string, db *asdb.DB) (int, error) {
	lf, err := os.Open(ledger)
	if err != nil {
		return 0, err
	}
	records, err := dataset.ReadAll(lf)
	lf.Close()
	if err != nil {
		return 0, fmt.Errorf("reading ledger %s: %w", ledger, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	notices := notify.Build(records, db)
	for i, n := range notices {
		if i > 0 {
			fmt.Fprintln(f, strings.Repeat("-", 72))
		}
		fmt.Fprintln(f, notify.Render(n))
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return len(notices), nil
}

// readCheckpoint loads and sanity-checks a resume file. Deep validation
// (seed, epoch, shard count, config digest, the ledger prefix) happens in
// core when the census starts; this only rejects files that are not
// checkpoints at all.
func readCheckpoint(path string) (*analysis.CheckpointState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := analysis.DecodeSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint %s: %w", path, err)
	}
	if snap.Checkpoint == nil {
		return nil, fmt.Errorf("%s is an aggregate snapshot, not a resumable checkpoint", path)
	}
	return snap.Checkpoint, nil
}

// writeCheckpointAtomic persists a checkpoint via tmp+rename so a crash
// mid-write can never leave a torn file where the previous good checkpoint
// was — the file either holds the old checkpoint or the new one.
func writeCheckpointAtomic(snap *analysis.Snapshot, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := snap.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// openLedgerForResume trims the interrupted JSONL ledger to exactly the
// first streamed records the checkpoint accounts for, counted as the
// decoder counts them, and returns a reader over that prefix for the
// census to re-fold and the ledger opened for appending. The ledger is
// read as a stream, never whole. Trimming matters in the crash case:
// records streamed after the last checkpoint was written would otherwise
// duplicate when the resumed run re-observes their hosts.
func openLedgerForResume(path string, streamed int) (prefix, appendTo *os.File, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("resume ledger: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			err = fmt.Errorf("resume ledger %s: %w", path, err)
		}
	}()
	size, err := dataset.PrefixSize(f, streamed)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (wrong file?)", err)
	}
	if err := os.Truncate(path, size); err != nil {
		return nil, nil, err
	}
	// A hand-edited last record may lack its line end; the records
	// appended after it need one.
	last := []byte{'\n'}
	if size > 0 {
		if _, err := f.ReadAt(last, size-1); err != nil {
			return nil, nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	app, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if last[0] != '\n' {
		if _, err := app.Write([]byte{'\n'}); err != nil {
			app.Close()
			return nil, nil, err
		}
	}
	return f, app, nil
}

func writeSnapshot(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
