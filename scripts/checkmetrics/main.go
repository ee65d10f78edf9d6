// Command checkmetrics validates a metrics snapshot written by
// -metrics-out: it must parse as an obs.Snapshot, carry non-zero pipeline
// counters, account for every host the world built (evicted or still
// resident), include populated enumerator latency histograms, when the
// census wrote checkpoints, hold one scanner pause per periodic checkpoint,
// and, when it was truncated, hold its shutdown time.
// Used by scripts/smoke.sh.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"ftpcloud/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "checkmetrics: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) != 2 {
		return fmt.Errorf("usage: checkmetrics <snapshot.json>")
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("parsing snapshot: %w", err)
	}
	if snap.Empty() {
		return fmt.Errorf("snapshot is empty")
	}
	for _, name := range []string{"zmap.probed", "zmap.responded", "census.observed", "enum.hosts", "world.materialized"} {
		if snap.Counters[name] == 0 {
			return fmt.Errorf("counter %s missing or zero", name)
		}
	}
	if snap.Counters["census.observed"] != snap.Counters["enum.hosts"] {
		return fmt.Errorf("census.observed=%d disagrees with enum.hosts=%d",
			snap.Counters["census.observed"], snap.Counters["enum.hosts"])
	}
	built, evicted := snap.Counters["world.materialized"], snap.Counters["world.evicted"]
	if resident := snap.Gauges["world.resident"]; resident < 0 || built != evicted+uint64(resident) {
		return fmt.Errorf("world.materialized=%d disagrees with world.evicted=%d + world.resident=%d",
			built, evicted, resident)
	}
	for _, name := range []string{"enum.latency.dial", "enum.latency.banner", "enum.latency.list", "enum.host_seconds"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			return fmt.Errorf("histogram %s missing or empty", name)
		}
	}
	if err := checkPauses(snap); err != nil {
		return err
	}
	if err := checkShutdown(snap); err != nil {
		return err
	}
	fmt.Printf("checkmetrics: %d counters, %d gauges, %d histograms; %d hosts enumerated\n",
		len(snap.Counters), len(snap.Gauges), len(snap.Histograms), snap.Counters["enum.hosts"])
	return nil
}

// truncated reports whether any census.truncated.* counter is non-zero.
func truncated(snap obs.Snapshot) bool {
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "census.truncated.") && n > 0 {
			return true
		}
	}
	return false
}

// checkShutdown requires one census.shutdown sample, the time from the
// cancel to the census returning, on a truncated run, and none otherwise.
func checkShutdown(snap obs.Snapshot) error {
	want := uint64(0)
	if truncated(snap) {
		want = 1
	}
	if got := snap.Histograms["census.shutdown"].Count; got != want {
		return fmt.Errorf("histogram census.shutdown holds %d samples, want %d", got, want)
	}
	return nil
}

// checkPauses requires a census.checkpoint.pause sample per periodic
// checkpoint. census.checkpoints also counts a truncated run's truncation
// checkpoint, which parks nothing.
func checkPauses(snap obs.Snapshot) error {
	periodic := snap.Counters["census.checkpoints"]
	if periodic == 0 {
		return nil
	}
	if truncated(snap) {
		periodic--
	}
	if got := snap.Histograms["census.checkpoint.pause"].Count; got != periodic {
		return fmt.Errorf("histogram census.checkpoint.pause holds %d samples for %d periodic checkpoints", got, periodic)
	}
	return nil
}
