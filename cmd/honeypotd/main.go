// Command honeypotd runs the §VIII honeypot study: it deploys anonymous,
// world-writable FTP honeypots on a simulated network, unleashes the
// calibrated attacker fleet, and prints the observed-attack report.
//
// The paper's posture is the default (8 honeypots, 457 attackers, one visit
// per bot-target pair). The fleet flags scale it to the Honeybuckets shape:
// hundreds of differentiated honeypots and millions of sessions, streamed
// through constant-memory accumulators rather than buffered.
//
// Usage:
//
//	honeypotd -honeypots 8 -attackers 457 -seed 3
//	honeypotd -honeypots 200 -bots 5000 -sessions 1000000 \
//	    -lure-mix webroot=4,backup=2,media=2,vault=1,bare=1 \
//	    -events-out events.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ftpcloud/internal/core"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/honeypot"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "honeypotd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		honeypots    = flag.Int("honeypots", 8, "number of honeypots (paper: 8)")
		attackers    = flag.Int("attackers", 457, "attacker population (paper: 457 unique IPs)")
		bots         = flag.Int("bots", 0, "alias for -attackers (fleet-scale naming); takes precedence when set")
		sessions     = flag.Int64("sessions", 0, "campaign session budget; 0 = one visit per bot-target pair (bots × targets sessions)")
		concurrency  = flag.Int("concurrency", 0, "in-flight attacker session cap (0 = fleet default)")
		lureMix      = flag.String("lure-mix", "", "lure strategy weights, e.g. webroot=4,backup=2,media=2,vault=1,bare=1 (empty = default mix)")
		eventsOut    = flag.String("events-out", "", "stream every honeypot event as JSONL to this file")
		concentrated = flag.Float64("concentrated", 0.30, "share of attackers from one network")
		seed         = flag.Uint64("seed", 3, "attacker fleet seed")
		timeout      = flag.Duration("timeout", 10*time.Minute, "run deadline")

		progress = flag.Duration("progress", 0,
			"emit a progress line to stderr at this interval (0 = off)")
		debugAddr = flag.String("debug-addr", "",
			"serve /debug/pprof, /debug/vars and /metrics on this address")
		metricsOut = flag.String("metrics-out", "",
			"write the final metrics snapshot (JSON) to this file")
	)
	flag.Parse()

	mix, err := honeypot.ParseLureMix(*lureMix)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	reg := obs.NewRegistry()
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, "honeypotd", reg)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "honeypotd: debug endpoints at http://%s/debug/pprof/ and /debug/vars\n", dbg.Addr())
	}
	if *metricsOut != "" {
		defer func() {
			f, err := os.Create(*metricsOut)
			if err == nil {
				err = reg.Snapshot().WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "honeypotd: metrics snapshot: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "honeypotd: wrote metrics snapshot to %s\n", *metricsOut)
			}
		}()
	}
	if *progress > 0 {
		rep := &obs.Reporter{Registry: reg, Interval: *progress}
		stop := rep.Start(ctx)
		defer stop()
	}

	var events *honeypot.EventStream
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return fmt.Errorf("events stream: %w", err)
		}
		events = honeypot.NewEventStream(dataset.NewLines(f))
	}

	population := *attackers
	if *bots > 0 {
		population = *bots
	}
	rep, err := core.HoneypotStudy(ctx, core.HoneypotStudyConfig{
		Seed:         *seed,
		Honeypots:    *honeypots,
		Attackers:    population,
		Concentrated: *concentrated,
		Sessions:     *sessions,
		Concurrency:  *concurrency,
		LureMix:      mix,
		Events:       events,
		Metrics:      reg,
	})
	if events != nil {
		if cerr := events.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("events stream: %w", cerr)
		}
	}
	if err != nil {
		return err
	}
	fmt.Print(report.Honeypot(rep))
	return nil
}
